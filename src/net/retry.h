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
/// DESIGN.md §11 "Failure handling" for the semantics.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retries.
  int max_attempts = 4;
  /// Backoff before the first retry; doubles per failure up to
  /// `max_backoff`.
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{2000};
  /// Each delay is perturbed by a uniform factor in [1-jitter, 1+jitter]
  /// so synchronized clients do not retry in lockstep.
  double jitter = 0.2;
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

/// Options of a per-endpoint circuit breaker.
struct CircuitBreakerOptions {
  /// Consecutive transport failures that open the breaker.
  int failure_threshold = 5;
  /// How long an open breaker short-circuits before admitting a half-open
  /// probe.
  std::chrono::milliseconds open_duration{1000};
};

/// A closed/open/half-open circuit breaker over one endpoint. Closed
/// passes everything through; `failure_threshold` consecutive transport
/// failures open it, after which attempts fail locally (Unavailable, no
/// I/O) until `open_duration` elapses; the next attempt then runs as a
/// half-open probe — success closes the breaker, failure reopens it.
///
/// Not thread-safe; `DiffcClient` (one outstanding request per client) is
/// the intended owner.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() : CircuitBreaker(CircuitBreakerOptions{}) {}
  explicit CircuitBreaker(CircuitBreakerOptions options) : options_(options) {}

  /// Gate before an attempt. Closed/half-open: OK. Open within the
  /// cooldown: Unavailable (the caller must not touch the network). Open
  /// past the cooldown: transitions to half-open and admits the probe.
  Status Allow();

  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  static const char* StateName(State s);

  /// Remaining cooldown while open (a retry-after hint); zero otherwise.
  std::chrono::milliseconds RetryAfter() const;

  /// Times the breaker transitioned to open (tests and stats).
  std::uint64_t opens() const { return opens_; }

 private:
  void TransitionTo(State next);

  const CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  std::uint64_t opens_ = 0;
  Deadline cooldown_ = Deadline::Never();
};

}  // namespace diffc::net

#endif  // DIFFC_NET_RETRY_H_
