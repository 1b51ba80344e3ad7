// Runs a command with madvise guard markers hidden, so every iso::Region it
// builds evacuates by remapping (the branch kernels before Linux 6.13 take):
//
//   build/tests/no_guard_markers ctest --test-dir build -L stress
#include <unistd.h>

#include <cstdio>

#include "guard_markers_hidden.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s command [args...]\n", argv[0]);
    return 2;
  }
  if (!mfc::test::hide_guard_markers()) {
    std::perror("no_guard_markers: seccomp filter");
    return 1;
  }
  execvp(argv[1], argv + 1);
  std::perror(argv[1]);
  return 127;
}
