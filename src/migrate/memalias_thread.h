// Memory-aliasing stacks (paper §3.4.3, Figure 3).
//
// Each thread's stack pages live in their own physical memory (a memfd
// file); switching a thread in maps those pages over the common stack
// address with one mmap call — "simulating the copy using the virtual
// memory hardware". Total virtual-address cost is a single stack, which is
// what makes the technique viable on 32-bit machines like Blue Gene/L; the
// price is an mmap call per switch-in plus the soft faults of re-touching
// the mapped pages (the ~4 µs plateau in Figure 9).
#pragma once

#include <cstddef>

#include "migrate/common_arena.h"
#include "migrate/migratable.h"

namespace mfc::migrate {

class MemAliasThread final : public MigratableThread {
 public:
  explicit MemAliasThread(Fn fn, std::size_t stack_bytes = kDefaultStackBytes);
  ~MemAliasThread() override;

  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  Technique technique() const override { return Technique::kMemAlias; }
  ImageManifest pack_manifest(bool count = false) override;
  void complete_pack() override;
  static MemAliasThread* from_image(const ImageManifest& image);

  void on_switch_in() override;
  void on_switch_out() override;

 private:
  explicit MemAliasThread(const ImageManifest& image);  // unpack path
  void create_backing();

  std::size_t stack_bytes_;
  bool started_ = false;
  int backing_fd_ = -1;  ///< memfd holding the thread's stack pages
};

}  // namespace mfc::migrate
