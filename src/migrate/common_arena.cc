#include "migrate/common_arena.h"

#include <sys/mman.h>

#include "trace/metrics.h"
#include "util/check.h"

namespace mfc::migrate {

CommonStackArena& CommonStackArena::stack_copy() {
  static CommonStackArena arena;
  return arena;
}

CommonStackArena& CommonStackArena::mem_alias() {
  static CommonStackArena arena;
  return arena;
}

namespace {
// Reserve both arenas at load time, so every process a machine forks
// inherits them at the same addresses whichever technique runs first.
[[maybe_unused]] const bool g_arenas_reserved =
    (CommonStackArena::stack_copy(), CommonStackArena::mem_alias(), true);
}  // namespace

CommonStackArena::CommonStackArena() {
  base_ = mmap(nullptr, kCapacity, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  MFC_CHECK_MSG(base_ != MAP_FAILED, "common stack arena reservation failed");
}

CommonStackArena::~CommonStackArena() { munmap(base_, kCapacity); }

void CommonStackArena::map_fd(int fd, std::size_t offset, std::size_t bytes) {
  MFC_CHECK(bytes <= kCapacity);
  void* addr = top() - bytes;
  void* r = mmap(addr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                 fd, static_cast<off_t>(offset));
  MFC_CHECK_MSG(r == addr, "arena map_fd failed");
  metrics::bump(metrics::Counter::kMemAliasMaps);
}

}  // namespace mfc::migrate
