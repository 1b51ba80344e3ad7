// Stack-copying threads (paper §3.4.1).
//
// Every thread executes at the stack-copy arena's system-wide address; the
// scheduler copies the thread's live stack bytes into the arena before
// running it and back out to a private buffer when it stops. Migration is
// trivial (the buffer ships as-is), but every context switch pays a memcpy
// proportional to live stack bytes — the Figure 9 curve that becomes
// "unusably slow" past ~20 KB.
#pragma once

#include <cstddef>
#include <vector>

#include "migrate/common_arena.h"
#include "migrate/migratable.h"

namespace mfc::migrate {

class StackCopyThread final : public MigratableThread {
 public:
  explicit StackCopyThread(Fn fn,
                           std::size_t stack_bytes = kDefaultStackBytes);

  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  Technique technique() const override { return Technique::kStackCopy; }
  ImageManifest pack_manifest(bool count = false) override;
  void complete_pack() override {}  // nothing local to drop

  static StackCopyThread* from_image(const ImageManifest& image);

  void on_switch_in() override;
  void on_switch_out() override;

  /// Live stack bytes currently saved (diagnostics / Figure 9).
  std::size_t saved_bytes() const { return saved_.size(); }

 private:
  explicit StackCopyThread(const ImageManifest& image);  // unpack path

  std::size_t stack_bytes_;
  bool started_ = false;
  std::vector<char> saved_;  ///< live stack contents, anchored at arena top
};

}  // namespace mfc::migrate
