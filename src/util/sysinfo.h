// Platform introspection used by the Table 1 / Table 2 reproductions.
#pragma once

#include <cstddef>
#include <string>

namespace mfc {

struct SysInfo {
  std::string arch;          ///< e.g. "x86_64"
  std::string os;            ///< e.g. "Linux 6.1"
  int ncpus = 0;             ///< online CPU count
  std::size_t page_size = 0;
  std::size_t total_ram = 0;          ///< bytes, 0 when unknown
  std::size_t address_bits = 0;       ///< virtual address width
  long max_user_processes = -1;       ///< RLIMIT_NPROC soft limit, -1 unlimited
  std::size_t max_stack = 0;          ///< RLIMIT_STACK soft limit, 0 unlimited
};

SysInfo query_sysinfo();

/// Capability probes used by the portability matrix (paper Table 1).
struct Capabilities {
  bool mmap_fixed = false;      ///< can remap pages at a chosen address
  bool memfd = false;           ///< memfd_create available (memory-alias stacks)
  bool big_reservation = false; ///< can reserve >= 16 GB of PROT_NONE VA (isomalloc)
  bool fork_works = false;      ///< process flows-of-control available
  bool stack_base_fixed = false;///< system stack base identical across runs
                                ///< (required by stack-copy on the *system* stack;
                                ///< our implementation uses its own arena, so this
                                ///< is informational)
  bool guard_pages = false;     ///< madvise guard markers (Linux >= 6.13): isomalloc
                                ///< evacuates without remapping
};

Capabilities probe_capabilities();

/// madvise advice values of Linux 6.13's guard markers (older libc headers
/// lack MADV_GUARD_INSTALL / MADV_GUARD_REMOVE).
inline constexpr int kMadvGuardInstall = 102;
inline constexpr int kMadvGuardRemove = 103;

/// One-page probe for madvise(MADV_GUARD_INSTALL / MADV_GUARD_REMOVE).
/// False where the kernel rejects the advice (EINVAL before Linux 6.13);
/// iso::Region then evacuates slots by remapping them PROT_NONE.
bool probe_guard_pages();

}  // namespace mfc
