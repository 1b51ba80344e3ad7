// Isomalloc threads (paper §3.4.2, Figure 2).
//
// Stack and heap both live in isomalloc slots, so every byte of thread
// state sits at a machine-wide-unique virtual address. Context switching is
// just the minimal register swap (no staging — the fastest technique in
// Figure 9), and migration is copy-without-fixup. While the thread runs,
// the routed allocator directs plain malloc/free to the thread's slot heap,
// so unmodified code migrates too.
#pragma once

#include <cstddef>

#include "iso/heap.h"
#include "migrate/migratable.h"

namespace mfc::migrate {

class IsoThread final : public MigratableThread {
 public:
  /// `birth_pe` picks the isomalloc strip for the stack and heap slots.
  IsoThread(Fn fn, int birth_pe,
            std::size_t stack_bytes = kDefaultStackBytes);
  ~IsoThread() override;

  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  Technique technique() const override { return Technique::kIsomalloc; }
  ImageManifest pack_manifest(bool count = false) override;
  void complete_pack() override;

  /// Destination-side rebuild (called via MigratableThread::unpack).
  static IsoThread* from_image(const ImageManifest& image, int dest_pe);

  void on_switch_in() override;
  void on_switch_out() override;

  iso::ThreadHeap& heap() { return *heap_; }

 private:
  IsoThread(int dest_pe, const ImageManifest& image);  // unpack path

  int birth_pe_;
  iso::SlotId stack_slot_;
  iso::ThreadHeap* heap_ = nullptr;
  bool migrated_away_ = false;
};

}  // namespace mfc::migrate
