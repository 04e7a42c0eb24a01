// The annotation layer must be exactly two things: (1) attribute sugar that
// clang's -Wthread-safety proves theorems about, and (2) NOTHING, under any
// other compiler or when explicitly disabled. This file compiles the
// primitives with the analysis force-stripped (the macro below neutralizes
// every PROBFT_* attribute even under clang) and checks the runtime
// semantics are unchanged: a stripped build must behave bit-identically to
// an annotated one, or gcc builds and clang builds would diverge.
#define PROBFT_DISABLE_THREAD_SAFETY_ANALYSIS 1

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace probft {
namespace {

// With the analysis stripped, every macro must expand to nothing — a class
// carrying them is a plain class. This is a compile-time fact; the
// static_assert just pins it.
class PROBFT_CAPABILITY("test") StrippedTag {};
static_assert(std::is_empty_v<StrippedTag>,
              "stripped annotation macros must not inject members");

TEST(Annotations, MutexStillMutuallyExcludes) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 10'000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, 40'000);
}

TEST(Annotations, ThreadRoleBindsAndReleases) {
  ThreadRole role;
  role.assert_held();  // unbound: any thread passes
  {
    ThreadRoleGuard guard(role);
    role.assert_held();  // bound to us: passes
  }
  // Released: another thread may now take the role.
  std::thread other([&]() {
    ThreadRoleGuard guard(role);
    role.assert_held();
  });
  other.join();
}

TEST(Annotations, ThreadRoleAdoptsFirstCaller) {
  ThreadRole role;
  role.assert_held_or_adopt();  // binds this thread
  role.assert_held();           // and stays bound to it
}

}  // namespace
}  // namespace probft
