// Annotated mutex, scoped lock, and condition variable — the capability
// types behind the thread safety analysis (common/annotations.h).
//
// std::mutex carries no annotations, so clang's -Wthread-safety cannot
// track it: a BT_GUARDED_BY member locked through std::lock_guard still
// warns, because the analysis never learns the lock was taken. These thin
// wrappers close that gap:
//
//   bt::Mutex      — std::mutex as a BT_CAPABILITY; lock()/unlock()/
//                    try_lock() tell the analysis what they do.
//   bt::MutexLock  — scoped lock (BT_SCOPED_CAPABILITY) with relock
//                    support: lock()/unlock() members let long-running
//                    loops drop the lock for a compute section and retake
//                    it, with the analysis tracking the state across both
//                    edges (the replica scheduler loop pattern,
//                    serving/pool.cc).
//   bt::CondVar    — condition variable waiting directly on bt::Mutex.
//                    wait()/wait_until() are BT_REQUIRES(mutex): callers
//                    hold the lock, the wait releases and retakes it
//                    internally (std::condition_variable_any treats Mutex
//                    as a BasicLockable), and the capability state is
//                    unchanged on return. There are deliberately no
//                    predicate overloads — a predicate lambda is a
//                    separate function the analysis cannot see the lock
//                    inside, so waits are written as explicit loops:
//
//                        MutexLock lock(mutex_);
//                        while (!stop_ && queue_.empty())
//                          cv_.wait(mutex_);
//
// The project lint (tools/lint.sh) rejects raw std::mutex /
// std::condition_variable members anywhere else under src/, so every lock
// in the tree is visible to the analysis.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace bt {

class BT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BT_ACQUIRE() { mu_.lock(); }
  void unlock() BT_RELEASE() { mu_.unlock(); }
  bool try_lock() BT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Runtime no-op that tells the analysis the capability is held — for
  // invariants established outside its view. Unused on the happy path;
  // prefer restructuring so the analysis can see the acquisition.
  void assert_held() const BT_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock over bt::Mutex. Construction acquires, destruction releases
// — unless the caller manually unlock()ed, which the analysis tracks and
// the held_ flag mirrors at runtime (same shape as std::unique_lock, minus
// the deferred/adopted modes nothing here uses).
class BT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BT_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() BT_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Relock support for hold-release-compute-retake loops.
  void lock() BT_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() BT_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool held_;
};

// Condition variable that waits on bt::Mutex directly, keeping the wait
// visible to the analysis (see the header comment for why there are no
// predicate overloads).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  // All waits: mu must be held; it is released while blocked and held
  // again on return (the internal unlock/relock is balanced, so the
  // capability state the analysis tracks is unchanged).
  void wait(Mutex& mu) BT_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      BT_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      BT_REQUIRES(mu) {
    return cv_.wait_for(mu, dur);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace bt
