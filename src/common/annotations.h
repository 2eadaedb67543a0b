// Clang thread-safety annotations + annotated mutex shims.
//
// Every shared-state class in the tree declares WHICH lock guards WHICH
// field (`PB_GUARDED_BY`) and WHICH lock a private helper expects held
// (`PB_REQUIRES`), so the locking discipline that the DP invariants rest
// on — the Accountant ledger, the WAL, the Dataset memo cells, the
// batching rendezvous — is machine-checked at compile time instead of
// hoped-for at review time. Under clang with `-Wthread-safety
// -Werror=thread-safety` (the `PRIVBASIS_ANALYZE` CMake option and the
// static-analysis CI job) an unguarded access is a build failure; under
// every other compiler the macros expand to nothing and `Mutex` /
// `MutexLock` / `CondVar` are zero-cost shims over std::mutex /
// std::lock_guard / std::condition_variable.
//
// The macro set mirrors the de-facto standard (abseil
// thread_annotations.h), prefixed PB_ to avoid collisions:
//
//   class PB_CAPABILITY("mutex") Mutex;      a lockable capability
//   Mutex mu_;
//   int counter_ PB_GUARDED_BY(mu_);         field needs mu_ held
//   int* cell_ PB_PT_GUARDED_BY(mu_);        pointee needs mu_ held
//   void RebuildLocked() PB_REQUIRES(mu_);   caller must hold mu_
//   void Rebuild() PB_EXCLUDES(mu_);         caller must NOT hold mu_
//   void Lock() PB_ACQUIRE();                function takes the lock
//   void Unlock() PB_RELEASE();              function drops the lock
//
// Condition variables: std::condition_variable needs a std::unique_lock
// over a raw std::mutex, which the analysis cannot see through. CondVar
// below waits directly on a held pb Mutex (adopting its native handle
// for the duration of the wait), so waiting code keeps the same
// `MutexLock lock(mu_); cv_.Wait(mu_, pred)` shape the analysis
// understands.
#ifndef PRIVBASIS_COMMON_ANNOTATIONS_H_
#define PRIVBASIS_COMMON_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define PB_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define PB_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

#define PB_CAPABILITY(x) PB_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define PB_SCOPED_CAPABILITY PB_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define PB_GUARDED_BY(x) PB_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define PB_PT_GUARDED_BY(x) PB_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define PB_ACQUIRED_BEFORE(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define PB_ACQUIRED_AFTER(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define PB_REQUIRES(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define PB_REQUIRES_SHARED(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define PB_ACQUIRE(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define PB_RELEASE(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define PB_TRY_ACQUIRE(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define PB_EXCLUDES(...) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define PB_ASSERT_CAPABILITY(x) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define PB_RETURN_CAPABILITY(x) \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

#define PB_NO_THREAD_SAFETY_ANALYSIS \
  PB_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace privbasis {

class CondVar;

/// std::mutex with the capability attribute, so PB_GUARDED_BY(mu_)
/// declarations are checkable. Same size and cost as the std::mutex it
/// wraps; non-recursive, non-movable.
class PB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PB_ACQUIRE() { mu_.lock(); }
  void Unlock() PB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scope lock over Mutex — the annotated std::lock_guard.
class PB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PB_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() PB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable waiting on a held pb::Mutex. Every Wait* entry
/// point PB_REQUIRES the mutex: the analysis sees the lock held across
/// the wait (which is the invariant the caller relies on — the wait
/// reacquires before returning), and a wait without the lock is a
/// compile error instead of UB.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(Mutex& mu) PB_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) PB_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& tp)
      PB_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, tp);
    native.release();
    return status;
  }

  /// Returns pred() — true when the predicate held before `tp` passed.
  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(Mutex& mu, const std::chrono::time_point<Clock, Duration>& tp,
                 Pred pred) PB_REQUIRES(mu) {
    while (!pred()) {
      if (WaitUntil(mu, tp) == std::cv_status::timeout) return pred();
    }
    return true;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_ANNOTATIONS_H_
