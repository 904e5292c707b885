#ifndef DIFFC_NET_RETRY_H_
#define DIFFC_NET_RETRY_H_

#include <chrono>
#include <cstdint>
#include <random>

#include "util/deadline.h"
#include "util/status.h"

namespace diffc::net {

/// The client's retry discipline for transient failures (transport errors
/// and server shed replies). Defaults suit loopback/LAN deployments; see
/// DESIGN.md §11 "Failure handling" for the semantics. The backoff doubles
/// per failure up to a 2 s cap, and each delay is perturbed by a uniform
/// factor in [0.8, 1.2] so synchronized clients do not retry in lockstep.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retries.
  int max_attempts = 4;
  /// Backoff before the first retry.
  std::chrono::milliseconds initial_backoff{10};
  /// Wall-clock budget across all retries of one call, measured from the
  /// first failure; zero = unbounded. A delay that would overrun the
  /// budget ends the retry loop instead.
  std::chrono::milliseconds retry_budget{10000};
};

/// The per-call state of a retry loop: counts failures, produces the next
/// backoff delay, and says when to stop. Deadline-aware — a delay that
/// would sleep past the caller's deadline (or the policy's retry budget)
/// is refused, so the loop never retries past the point where the answer
/// could still be useful.
class RetrySchedule {
 public:
  RetrySchedule(const RetryPolicy& policy, std::uint64_t jitter_seed);

  /// Registers one failure and returns how long to sleep before the next
  /// attempt. `server_hint` (zero = none) is a retry-after floor from an
  /// OVERLOADED reply — the delay never undercuts it. Errors when the
  /// policy allows no further attempt: ResourceExhausted (attempts),
  /// DeadlineExceeded (caller deadline or retry budget would be overrun).
  Result<std::chrono::milliseconds> NextDelay(std::chrono::milliseconds server_hint,
                                              const Deadline& deadline);

  /// Failures registered so far.
  int failures() const { return failures_; }

 private:
  const RetryPolicy policy_;
  int failures_ = 0;
  std::chrono::milliseconds current_;
  Deadline budget_deadline_;  // Armed lazily at the first failure.
  bool budget_armed_ = false;
  std::mt19937_64 rng_;
};

}  // namespace diffc::net

#endif  // DIFFC_NET_RETRY_H_
