// Clang thread-safety (capability) analysis macros.
//
// Under clang, these expand to the attributes consumed by
// -Wthread-safety, turning the locking invariants documented in
// docs/ARCHITECTURE.md ("Threading model") into compile-time checks:
// a member annotated PROBFT_GUARDED_BY(mu_) cannot be touched without
// holding mu_, a function annotated PROBFT_REQUIRES(role) cannot be
// called from code that does not hold the capability, and a build that
// violates either fails under -Werror. Under gcc (or any compiler
// without the attribute, or with PROBFT_DISABLE_THREAD_SAFETY_ANALYSIS
// defined) every macro expands to nothing, so the annotated tree
// compiles bit-identically to the unannotated one — the analysis is a
// zero-cost overlay, never a dependency.
//
// The annotated primitives live in common/mutex.hpp (probft::Mutex,
// probft::MutexLock, probft::ThreadRole); docs/STATIC_ANALYSIS.md covers
// how to run the analysis and the deviations it cannot prove.
#pragma once

#if defined(__clang__) && !defined(SWIG) && \
    !defined(PROBFT_DISABLE_THREAD_SAFETY_ANALYSIS)
#define PROBFT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PROBFT_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a capability (a lock, or a role like "the loop
/// thread"). `x` names it in diagnostics, e.g. "mutex" or "role".
#define PROBFT_CAPABILITY(x) PROBFT_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability (probft::MutexLock).
#define PROBFT_SCOPED_CAPABILITY PROBFT_THREAD_ANNOTATION(scoped_lockable)

/// Data members: may only be read/written while holding the capability.
#define PROBFT_GUARDED_BY(x) PROBFT_THREAD_ANNOTATION(guarded_by(x))
/// Pointer members: the pointee (not the pointer) is guarded.
#define PROBFT_PT_GUARDED_BY(x) PROBFT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: caller must hold the capability.
#define PROBFT_REQUIRES(...) \
  PROBFT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Functions: acquire/release the capability (lock(), unlock(), and the
/// ctor/dtor of scoped lockers).
#define PROBFT_ACQUIRE(...) \
  PROBFT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PROBFT_RELEASE(...) \
  PROBFT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PROBFT_TRY_ACQUIRE(...) \
  PROBFT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Functions: caller must NOT hold the capability (deadlock guard for
/// public entry points that take the lock themselves).
#define PROBFT_EXCLUDES(...) \
  PROBFT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts (to the analysis) that the capability is held here without
/// acquiring it — the bridge for thread confinement ("loop thread only"),
/// which probft::ThreadRole checks at runtime in debug builds.
#define PROBFT_ASSERT_CAPABILITY(x) \
  PROBFT_THREAD_ANNOTATION(assert_capability(x))

/// Functions returning a reference to a capability-guarding mutex.
#define PROBFT_RETURN_CAPABILITY(x) \
  PROBFT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch. Every use must cite docs/STATIC_ANALYSIS.md's
/// suppression list; tools/lint_protocol.py does not police this (yet),
/// review does.
#define PROBFT_NO_THREAD_SAFETY_ANALYSIS \
  PROBFT_THREAD_ANNOTATION(no_thread_safety_analysis)
