#ifndef DIFFC_UTIL_DEADLINE_H_
#define DIFFC_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace diffc {

/// A wall-clock execution bound on `std::chrono::steady_clock`.
///
/// A default-constructed deadline never expires, so unbounded callers pay
/// nothing: `Expired()` is a single comparison and never reads the clock.
/// Deadlines are plain values — copy them freely across threads.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// A deadline that never expires.
  Deadline() : expiry_(Clock::time_point::max()) {}

  /// A deadline that never expires (named form).
  static Deadline Never() { return Deadline(); }

  /// Expires `budget` from now. Zero or negative budgets are already
  /// expired — useful for draining queues fail-fast.
  static Deadline After(Clock::duration budget) {
    Deadline d;
    d.expiry_ = Clock::now() + budget;
    return d;
  }

  /// Expires at the given instant.
  static Deadline At(Clock::time_point expiry) {
    Deadline d;
    d.expiry_ = expiry;
    return d;
  }

  /// The earlier (tighter) of two deadlines.
  static Deadline Earlier(Deadline a, Deadline b) {
    return a.expiry_ <= b.expiry_ ? a : b;
  }

  /// True iff this deadline can never expire.
  bool IsNever() const { return expiry_ == Clock::time_point::max(); }

  /// True iff the deadline has passed. Reads the clock only for finite
  /// deadlines.
  bool Expired() const { return !IsNever() && Clock::now() >= expiry_; }

  /// Time left before expiry (negative once expired); `duration::max()`
  /// for a never-expiring deadline.
  Clock::duration Remaining() const {
    if (IsNever()) return Clock::duration::max();
    return expiry_ - Clock::now();
  }

  /// The expiry instant (`time_point::max()` for Never).
  Clock::time_point expiry() const { return expiry_; }

 private:
  Clock::time_point expiry_;
};

/// A shareable cooperative-cancellation flag.
///
/// Copies observe the same underlying flag; `Cancel()` on any copy is seen
/// by all of them. Used to cancel an in-flight `CheckBatch`: queued queries
/// drain as `Cancelled`, and running solvers stop at their next cooperative
/// check-point. Cancellation is one-way — a fired token stays fired.
///
/// Thread-safe: `Cancel()` and `Cancelled()` may race freely.
class CancelToken {
 public:
  /// A fresh, unfired token.
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Fires the token. Idempotent.
  void Cancel() const { flag_->store(true, std::memory_order_release); }

  /// True iff some copy of this token has fired.
  bool Cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The cooperative stop condition threaded through long-running search
/// loops (the `sat` kernel, DPLL, the transversal search, the exhaustive
/// implication checker): a deadline plus a cancel token, checked amortized.
///
/// `Check()` is designed to sit on a hot path: it consults the clock and
/// the token only on the first call and then every `stride` calls (default
/// 1024) after the last sample, a `CheckNow()` included; in between it is
/// a branch and a decrement. Once a stop condition fires the status is
/// sticky — every later call returns the same error without re-reading the
/// clock — so an unwinding search cannot "un-stop".
///
/// Not thread-safe: each solver invocation owns its `StopCheck`. Share the
/// `CancelToken` across threads instead.
class StopCheck {
 public:
  static constexpr std::uint32_t kDefaultStride = 1024;

  /// A check that never stops (no deadline, token never fires).
  StopCheck() = default;

  /// Stops when `deadline` expires or `token` fires, sampled every
  /// `stride` calls (clamped to at least 1).
  StopCheck(Deadline deadline, CancelToken token,
            std::uint32_t stride = kDefaultStride)
      : deadline_(deadline),
        token_(std::move(token)),
        armed_(true),
        stride_(stride < 1 ? 1 : stride) {}

  /// Amortized check: OK, or DeadlineExceeded / Cancelled (sticky). The
  /// first call always samples, so an already-expired deadline fires
  /// immediately.
  Status Check() {
    if (!armed_ || !status_.ok()) return status_;
    if (countdown_ > 0) {
      --countdown_;
      return Status();
    }
    return CheckNow();
  }

  /// Unamortized check: samples the token and clock right now (sticky),
  /// and restarts the stride, so the next `stride - 1` `Check()` calls do
  /// not sample again.
  Status CheckNow();

  /// True iff a stop condition has fired.
  bool stopped() const { return !status_.ok(); }

  /// The sticky stop status (OK while running).
  const Status& status() const { return status_; }

  /// The deadline this check enforces.
  const Deadline& deadline() const { return deadline_; }

  /// Number of full (clock/token) samples performed — the real cost of the
  /// check, for overhead accounting in benchmarks.
  std::uint64_t samples() const { return samples_; }

 private:
  Deadline deadline_;
  CancelToken token_;
  bool armed_ = false;
  std::uint32_t stride_ = kDefaultStride;
  std::uint32_t countdown_ = 0;  // First Check() samples immediately.
  std::uint64_t samples_ = 0;
  Status status_;
};

}  // namespace diffc

#endif  // DIFFC_UTIL_DEADLINE_H_
