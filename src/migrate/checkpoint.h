// Checkpoint/restart for migratable threads (paper §3):
//
//   "Migration techniques can also be used to implement checkpoint/restart
//    for fault tolerance — under this model, checkpointing is simply
//    migration to disk or the local memory of a remote processor."
//
// A Checkpoint frames thread images plus an application-defined PUP-able
// header into one byte buffer or file. The images are gathered from the
// same ImageManifests migration ships, so a checkpoint frame holds exactly
// the wire bytes a migration would have carried. Decoding copies the frame
// payload into a buffer the Checkpoint owns and decodes every image in
// place within it, so the decoded manifests outlive the caller's bytes
// (read_file's buffer, a buddy store). Restoring unpacks every thread at
// its original (machine-wide-unique) addresses — so a restart is a
// migration whose "destination processor" is a future run of the program.
//
// Requirement inherited from isomalloc: the restoring process must hold the
// same iso::Region reservation (same base address and geometry). Region
// geometry is recorded in the checkpoint and verified on restore.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "migrate/migratable.h"
#include "pup/pup.h"

namespace mfc::migrate {

class Checkpoint {
 public:
  Checkpoint() = default;
  // Decoded manifests point into frame_, whose buffer a move keeps and a
  // copy would not.
  Checkpoint(Checkpoint&&) = default;
  Checkpoint& operator=(Checkpoint&&) = default;
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Captures a suspended thread by migrating it into the checkpoint
  /// ("migration to disk"): the thread is packed, which consumes its local
  /// memory. Delete the husk afterwards; decode() + restore_all() of the
  /// encoded frame brings it back.
  void add(MigratableThread* thread);

  /// Captures a suspended thread without disturbing it. Borrows `m`: the
  /// manifest (and the thread it describes) must stay valid — thread
  /// unmoved, not resumed — until encode() is done.
  void add_manifest(const ImageManifest& m);

  /// Application metadata stored alongside the threads (iteration number,
  /// RNG state, ...).
  void set_user_data(std::vector<char> bytes) { user_data_ = std::move(bytes); }
  const std::vector<char>& user_data() const { return user_data_; }

  /// Threads captured so far, or decoded by decode().
  std::size_t thread_count() const { return sources_.size() + images_.size(); }

  /// Rebuilds every decoded thread (in capture order). The caller owns the
  /// results and typically ready()s them on the appropriate schedulers.
  std::vector<MigratableThread*> restore_all(int dest_pe = 0);

  /// Framed serialization: a versioned header plus a CRC-32C of the PUP
  /// payload, so a restore from storage or a buddy PE can reject truncated
  /// or bit-flipped images with a typed error. One pass gathers every
  /// captured image into the frame and folds the CRC as it copies. Frame
  /// layout (little-endian):
  ///   [magic u32][version u32][payload_len u64][crc32 u32][payload bytes]
  /// decode() returns a typed error and never crashes: the payload is
  /// walked with bounds checks (ImageManifest::decode for each image) even
  /// when its CRC matches. The corruption fuzz test walks every truncation
  /// length and single-byte flip.
  std::vector<char> encode() const;
  static CodecError decode(const char* data, std::size_t size,
                           Checkpoint* out);
  static CodecError decode(const std::vector<char>& bytes, Checkpoint* out);

  /// File-level round trip ("migration to disk"), framed + CRC-verified.
  void write_file(const std::string& path) const;
  static Checkpoint read_file(const std::string& path);

 private:
  struct RegionStamp {
    std::uint64_t base = 0;
    std::uint64_t slot_bytes = 0;
    std::uint32_t slots_per_pe = 0;
    std::int32_t npes = 0;
    void pup(pup::Er& p) { p | base | slot_bytes | slots_per_pe | npes; }
  };

  /// One captured image: a borrowed manifest, or a packed thread's bytes.
  struct Source {
    const ImageManifest* manifest = nullptr;
    std::vector<char> bytes;
  };

  static RegionStamp current_stamp();
  void stamp_once();

  RegionStamp stamp_;
  bool stamped_ = false;
  std::vector<Source> sources_;  ///< capture side (add*, encode)
  /// Decode side (decode, restore_all): the frame payload, and the images
  /// decoded in place within it.
  std::vector<char> frame_;
  std::vector<ImageManifest> images_;
  std::vector<char> user_data_;
};

}  // namespace mfc::migrate
