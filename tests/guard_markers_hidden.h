// Hides madvise guard markers from the calling process and every process it
// later forks or execs, so iso::Region takes its remap fallback on a kernel
// that has them. A seccomp filter answers madvise advice >= 102
// (MADV_GUARD_INSTALL, MADV_GUARD_REMOVE) with EINVAL, which is what kernels
// before Linux 6.13 answer. Needs no privileges (PR_SET_NO_NEW_PRIVS).
#pragma once

#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "util/sysinfo.h"

namespace mfc::test {

/// Returns false where seccomp filters are unavailable.
inline bool hide_guard_markers() {
#if defined(__x86_64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_AARCH64;
#else
  return false;
#endif
  // The advice is the low word of args[2] on these little-endian targets.
  sock_filter prog[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_madvise, 0, 3),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, args[2])),
      BPF_JUMP(BPF_JMP | BPF_JGE | BPF_K, kMadvGuardInstall, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | EINVAL),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog fprog{static_cast<unsigned short>(std::size(prog)), prog};
  return prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &fprog) == 0;
}

}  // namespace mfc::test
