// Annotated synchronization primitives for the thread-safety analysis
// (common/annotations.hpp). Thin zero-overhead wrappers over the std
// primitives: the wrappers exist so clang can name them as capabilities
// — std::mutex carries no annotations, so locking discipline written
// against it is invisible to -Wthread-safety.
//
// Conventions used across the threaded surface (net/tcp_transport,
// store/wal, sim/tcp_runner):
//   - every mutex-protected member is PROBFT_GUARDED_BY its Mutex;
//   - scopes hold locks via MutexLock (scoped capability), never bare
//     lock()/unlock() pairs;
//   - thread-confined state ("loop thread only") is modeled by a
//     ThreadRole capability: the owning loop acquires it, confined
//     public entry points assert it (compile-time via
//     PROBFT_ASSERT_CAPABILITY, runtime thread-id check in debug
//     builds).
#pragma once

#include <atomic>
#include <cassert>
#include <mutex>
#include <thread>

#include "common/annotations.hpp"

namespace probft {

/// Exclusive mutex capability (wraps std::mutex).
class PROBFT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PROBFT_ACQUIRE() { mu_.lock(); }
  void unlock() PROBFT_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() PROBFT_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

/// Scoped exclusive lock (the only way code should hold a Mutex).
class PROBFT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PROBFT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PROBFT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A capability that is a thread identity, not a lock: "this state is
/// only ever touched from the owning thread". The owning loop acquires
/// the role for the duration of its run; entry points that are
/// documented thread-confined call assert_held(), which (a) tells the
/// analysis the capability holds from here on and (b) in debug builds
/// verifies the calling thread really is the owner (or that no owner is
/// bound yet — setup before the loop starts is legal). Release builds
/// compile the check away entirely.
class PROBFT_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  /// Binds the role to the calling thread (rebinding is legal: a
  /// transport may be driven by different threads in successive runs,
  /// never concurrently).
  void acquire() PROBFT_ACQUIRE() {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  /// Unbinds; post-run teardown on another thread is then legal again.
  void release() PROBFT_RELEASE() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

  /// Thread-confined entry points call this first.
  void assert_held() const PROBFT_ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    const std::thread::id owner = owner_.load(std::memory_order_relaxed);
    assert((owner == std::thread::id{} ||
            owner == std::this_thread::get_id()) &&
           "thread-confined call from a foreign thread; use post()");
#endif
  }

  /// Like assert_held(), but lazily adopts the first calling thread as
  /// the owner — for single-owner objects nobody explicitly runs (the
  /// WAL: owned by whichever thread constructed and drives the replica).
  void assert_held_or_adopt() PROBFT_ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    const std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner == std::thread::id{}) {
      owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
      return;
    }
    assert(owner == std::this_thread::get_id() &&
           "single-owner object touched from a second thread");
#endif
  }

 private:
  std::atomic<std::thread::id> owner_{};
};

/// Scoped ThreadRole ownership for the run loop itself.
class PROBFT_SCOPED_CAPABILITY ThreadRoleGuard {
 public:
  explicit ThreadRoleGuard(ThreadRole& role) PROBFT_ACQUIRE(role)
      : role_(role) {
    role_.acquire();
  }
  ~ThreadRoleGuard() PROBFT_RELEASE() { role_.release(); }

  ThreadRoleGuard(const ThreadRoleGuard&) = delete;
  ThreadRoleGuard& operator=(const ThreadRoleGuard&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace probft
