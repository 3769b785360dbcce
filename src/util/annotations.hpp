// Portable thread-safety annotations (clang -Wthread-safety).
//
// The 30-s cycle path is concurrent by design: CommWorld runs one thread per
// rank, the JIT-DT watcher polls from a background thread, and the logger is
// called from all of them.  These macros attach clang's thread-safety
// attributes to the mutexes and the members they guard, turning "this member
// is protected by that mutex" from a comment into a compile-time race gate
// (enabled via -Wthread-safety whenever the compiler is clang; they expand
// to nothing elsewhere, so GCC builds are unaffected).
//
// tools/bda_analyze (guarded-by) additionally cross-checks the annotations
// against the implementation files on every lint run, so the discipline
// holds even on a GCC-only toolchain: a member declared BDA_GUARDED_BY(mu_)
// may only be touched from functions that lock `mu_` or are marked
// BDA_REQUIRES(mu_).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define BDA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BDA_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Marks a mutex-like type or member as a capability ("mutex").
#define BDA_CAPABILITY(x) BDA_THREAD_ANNOTATION(capability(x))

/// Member may only be read or written while holding `x`.
#define BDA_GUARDED_BY(x) BDA_THREAD_ANNOTATION(guarded_by(x))

/// Pointee may only be accessed while holding `x`.
#define BDA_PT_GUARDED_BY(x) BDA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function must be called with `x` (...) held.
#define BDA_REQUIRES(...) BDA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires / releases `x` (constructor/destructor of RAII locks,
/// or lock()/unlock() style members).
#define BDA_ACQUIRE(...) BDA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BDA_RELEASE(...) BDA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called with `x` held (deadlock guard).
#define BDA_EXCLUDES(...) BDA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch for code the analysis cannot follow (e.g. lock handoff
/// through std::condition_variable::wait).  Use sparingly and comment why.
#define BDA_NO_THREAD_SAFETY_ANALYSIS \
  BDA_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Ties a condition_variable member to the mutex guarding its predicate.
/// Deliberately expands to nothing on every compiler — notifying without
/// the lock held is legal and intentional here (PipelinedDriver notifies
/// after unlock), so this must NOT become a clang guarded_by attribute.
/// It exists for the machines: tools/bda_analyze requires every
/// condition_variable to carry one (mutex-annotation) and cross-checks that
/// functions touching the cv also name the mutex (guarded-by).
#define BDA_CV_OF(x)
