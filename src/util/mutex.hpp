#pragma once
// Annotated mutex / condition-variable wrappers for the thread-safety
// analysis (see util/thread_annotations.hpp).
//
// std::mutex under libstdc++ carries no capability attributes, so Clang's
// analysis cannot see std::lock_guard/std::unique_lock acquiring anything.
// These thin wrappers attach the attributes while compiling to exactly the
// std types underneath; behaviour is identical on every compiler.
//
// Usage pattern the analysis checks end-to-end:
//
//   util::Mutex mutex_;
//   int state_ GUARDED_BY(mutex_);
//
//   void tick() {
//     util::MutexLock lock(mutex_);   // ACQUIRE at construction
//     ++state_;                       // ok: mutex_ held
//     while (!ready_) cv_.wait(lock); // predicate as an explicit loop so
//   }                                 // guarded reads stay in this scope
//
// Condition-variable predicates are written as explicit while-loops rather
// than wait(lock, lambda): the analysis treats a lambda body as a separate
// unannotated function, so guarded reads inside one would be flagged even
// though the lock is held.

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace bitio::util {

/// std::mutex with the `capability` attribute the analysis tracks.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex m_;
};

/// Scoped lock over a Mutex (std::unique_lock underneath, so it can be
/// handed to CondVar waits and unlocked/relocked mid-scope).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.m_) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() ACQUIRE() { lock_.lock(); }
  void unlock() RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable taking MutexLock.  Like absl::CondVar, a wait is
/// annotated as if the capability stays held throughout: the temporary
/// release inside wait() is invisible to the analysis, which is safe
/// (conservative) for callers re-checking predicates in a loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace bitio::util
