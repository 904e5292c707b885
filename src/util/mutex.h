#ifndef DIFFC_UTIL_MUTEX_H_
#define DIFFC_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace diffc {

/// An annotated wrapper over `std::mutex`, the project's only mutex type
/// for protected members (enforced by `tools/diffc_lint.py`): a raw
/// `std::mutex` member is invisible to Clang's thread-safety analysis,
/// while a `Mutex` participates as a capability, so `GUARDED_BY(mu_)`
/// members and `REQUIRES(mu_)` functions are checked at compile time.
///
/// Same cost as `std::mutex` (the annotations are attributes, not code).
/// Lock through the RAII `MutexLock` below; `Lock()`/`Unlock()` exist for
/// the rare manually-paired section and for `MutexLock` itself.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over `Mutex` — the annotated replacement for
/// `std::lock_guard` (which the analysis cannot see). Scoped acquire in
/// the constructor, release in the destructor:
///
///     MutexLock lock(&mu_);
///     guarded_member_ = ...;  // OK: the analysis knows mu_ is held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace diffc

#endif  // DIFFC_UTIL_MUTEX_H_
