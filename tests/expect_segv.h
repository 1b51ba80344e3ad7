// Death-test expectation for touching an evacuated isomalloc slot: the
// process dies of SIGSEGV. ThreadSanitizer's own SIGSEGV handler reports
// the fault and exits 66 instead, so under tsan that report is matched.
#pragma once

#include <gtest/gtest.h>

#include <csignal>

#if defined(__SANITIZE_THREAD__)
#define EXPECT_SEGV(statement)                                 \
  EXPECT_EXIT(statement, ::testing::ExitedWithCode(66),        \
              "ThreadSanitizer: SEGV on unknown address")
#else
#define EXPECT_SEGV(statement) \
  EXPECT_EXIT(statement, ::testing::KilledBySignal(SIGSEGV), "")
#endif
