#include "util/sysinfo.h"

#define _GNU_SOURCE 1
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

namespace mfc {

SysInfo query_sysinfo() {
  SysInfo info;
  utsname un{};
  if (uname(&un) == 0) {
    info.arch = un.machine;
    info.os = std::string(un.sysname) + " " + un.release;
  }
  info.ncpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  info.page_size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const long phys_pages = sysconf(_SC_PHYS_PAGES);
  if (phys_pages > 0) {
    info.total_ram = static_cast<std::size_t>(phys_pages) * info.page_size;
  }
  info.address_bits = sizeof(void*) == 8 ? 48 : 32;

  rlimit rl{};
  if (getrlimit(RLIMIT_NPROC, &rl) == 0) {
    info.max_user_processes =
        rl.rlim_cur == RLIM_INFINITY ? -1 : static_cast<long>(rl.rlim_cur);
  }
  if (getrlimit(RLIMIT_STACK, &rl) == 0) {
    info.max_stack =
        rl.rlim_cur == RLIM_INFINITY ? 0 : static_cast<std::size_t>(rl.rlim_cur);
  }
  return info;
}

namespace {

bool probe_mmap_fixed() {
  const std::size_t len = 1 << 16;
  void* region = mmap(nullptr, 2 * len, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) return false;
  void* fixed = mmap(region, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  const bool ok = fixed != MAP_FAILED;
  munmap(region, 2 * len);
  return ok;
}

bool probe_memfd() {
#if defined(__linux__)
  int fd = memfd_create("mfc-probe", 0);
  if (fd < 0) return false;
  close(fd);
  return true;
#else
  return false;
#endif
}

bool probe_big_reservation() {
  const std::size_t len = 16ULL << 30;
  void* region = mmap(nullptr, len, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) return false;
  munmap(region, len);
  return true;
}

bool probe_fork() {
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) _exit(0);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

bool probe_guard_pages() {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* p = mmap(nullptr, page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  const bool ok = madvise(p, page, kMadvGuardInstall) == 0 &&
                  madvise(p, page, kMadvGuardRemove) == 0;
  munmap(p, page);
  return ok;
}

Capabilities probe_capabilities() {
  Capabilities caps;
  caps.mmap_fixed = probe_mmap_fixed();
  caps.memfd = probe_memfd();
  caps.big_reservation = probe_big_reservation();
  caps.fork_works = probe_fork();
  // Linux randomizes the process stack base (ASLR) by default, which is
  // exactly the paper's argument against using the *system* stack for
  // stack-copy threads. Our stack-copy arena allocates its own mmap'ed
  // execution address agreed at startup, so we report the capability of the
  // arena approach rather than parsing ASLR state.
  caps.stack_base_fixed = caps.mmap_fixed;
  caps.guard_pages = probe_guard_pages();
  return caps;
}

}  // namespace mfc
