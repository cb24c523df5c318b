// Portable Clang Thread Safety Analysis annotations.
//
// These macros turn the locking discipline that used to live in comments
// ("guarded by mutex_", "loop-thread only") into contracts the compiler
// proves on every call path: clang's -Wthread-safety capability analysis
// rejects any access to a BT_GUARDED_BY member without its mutex held and
// any call to a BT_REQUIRES function without the named capability. The
// serving stack is four lock-holding layers deep (ThreadPool -> a model's
// replica group -> Service -> net::Server); TSan only sees the
// interleavings a test happens to execute, while this analysis is the
// static complement — it checks every path at compile time.
//
// On non-Clang compilers (and Clang without the attributes) every macro
// expands to nothing, so GCC builds are unaffected. CI enforces the
// contract with a dedicated clang -Wthread-safety -Werror job, and a
// configure-time negative compile test (tests/compile/) proves the wiring
// rejects an unguarded access — so it cannot silently rot.
//
// Annotated capability types live in common/mutex.h (bt::Mutex,
// bt::MutexLock, bt::CondVar) and common/thread_checker.h
// (bt::LoopThreadChecker, the "runs only on the loop thread" capability).
// docs/ANALYSIS.md describes the per-layer locking contract.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef BT_THREAD_ANNOTATION
#define BT_THREAD_ANNOTATION(x)  // compiled out: GCC, MSVC, old Clang
#endif

// ---- capability types -------------------------------------------------------

// Marks a class as a capability (a mutex, or a thread role): its instances
// can appear in the attributes below, and the analysis tracks whether each
// one is held. `x` is the capability kind shown in diagnostics ("mutex",
// "thread role").
#define BT_CAPABILITY(x) BT_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases a
// capability (bt::MutexLock).
#define BT_SCOPED_CAPABILITY BT_THREAD_ANNOTATION(scoped_lockable)

// ---- data annotations -------------------------------------------------------

// The member may only be read or written while holding `x`.
#define BT_GUARDED_BY(x) BT_THREAD_ANNOTATION(guarded_by(x))

// The member is a pointer/smart pointer; the *pointee* may only be
// dereferenced while holding `x` (the pointer itself is covered by
// BT_GUARDED_BY).
#define BT_PT_GUARDED_BY(x) BT_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations: this mutex must be acquired before/after the
// named ones. The analysis reports inversions at compile time.
#define BT_ACQUIRED_BEFORE(...) BT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BT_ACQUIRED_AFTER(...) BT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// ---- function annotations ---------------------------------------------------

// The caller must hold the capabilities when calling, and still holds them
// on return. This is the annotation for lock-held private helpers
// (`*_locked()` methods).
#define BT_REQUIRES(...) \
  BT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BT_REQUIRES_SHARED(...) \
  BT_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability and holds it on return (lock()),
// or releases a held capability (unlock()).
#define BT_ACQUIRE(...) BT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BT_ACQUIRE_SHARED(...) \
  BT_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define BT_RELEASE(...) BT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BT_RELEASE_SHARED(...) \
  BT_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// The function acquires the capability iff it returns `b` (try_lock()).
#define BT_TRY_ACQUIRE(...) \
  BT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// The caller must NOT hold the capability (the function acquires it
// internally; calling with it held would self-deadlock on a
// non-reentrant mutex).
#define BT_EXCLUDES(...) BT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// The function checks at runtime that the capability is held and tells the
// analysis to assume so afterwards — the bridge for invariants the static
// analysis cannot derive, like "this code runs on the event-loop thread"
// (LoopThreadChecker::assert_held) or a mutex handed across an ABI
// boundary (Mutex::assert_held).
#define BT_ASSERT_CAPABILITY(x) BT_THREAD_ANNOTATION(assert_capability(x))

// The function returns a reference to the named capability (accessors that
// expose a member mutex).
#define BT_RETURN_CAPABILITY(x) BT_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: disables the analysis for one function. Use only where the
// invariant is real but inexpressible, and say why at the use site.
#define BT_NO_THREAD_SAFETY_ANALYSIS \
  BT_THREAD_ANNOTATION(no_thread_safety_analysis)
