#include "net/retry.h"

#include <algorithm>
#include <string>

namespace diffc::net {

RetrySchedule::RetrySchedule(const RetryPolicy& policy, std::uint64_t jitter_seed)
    : policy_(policy), rng_(jitter_seed) {
  current_ = policy_.initial_backoff.count() > 0 ? policy_.initial_backoff
                                                 : std::chrono::milliseconds(0);
}

Result<std::chrono::milliseconds> RetrySchedule::NextDelay(
    std::chrono::milliseconds server_hint, const Deadline& deadline) {
  ++failures_;
  if (failures_ >= policy_.max_attempts) {
    return Status::ResourceExhausted("retry attempts exhausted (" +
                                     std::to_string(policy_.max_attempts) + ")");
  }
  if (!budget_armed_) {
    budget_armed_ = true;
    budget_deadline_ = policy_.retry_budget.count() > 0
                           ? Deadline::After(policy_.retry_budget)
                           : Deadline::Never();
  }

  std::chrono::milliseconds delay = std::min(current_, policy_.max_backoff);
  if (policy_.jitter > 0 && delay.count() > 0) {
    const double u = std::uniform_real_distribution<double>(-1.0, 1.0)(rng_);
    const auto wiggle = static_cast<long long>(static_cast<double>(delay.count()) *
                                               policy_.jitter * u);
    delay += std::chrono::milliseconds(wiggle);
    if (delay.count() < 0) delay = std::chrono::milliseconds(0);
  }
  // The server's retry-after hint is a floor, never a discount: backing
  // off less than an overloaded server asked for just feeds the overload.
  if (server_hint > delay) delay = server_hint;

  // Advance the exponential state for the next failure.
  current_ = std::min(current_ * 2, policy_.max_backoff);
  if (current_.count() < 1) current_ = std::chrono::milliseconds(1);

  if (!deadline.IsNever() && deadline.Remaining() <= delay) {
    return Status::DeadlineExceeded("caller deadline leaves no room for another retry");
  }
  if (!budget_deadline_.IsNever() && budget_deadline_.Remaining() <= delay) {
    return Status::DeadlineExceeded("retry budget exhausted after " +
                                    std::to_string(failures_) + " failures");
  }
  return delay;
}

const char* CircuitBreaker::StateName(State s) {
  switch (s) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void CircuitBreaker::TransitionTo(State next) {
  if (state_ == next) return;
  state_ = next;
  if (next == State::kOpen) {
    ++opens_;
    cooldown_ = Deadline::After(options_.open_duration);
  } else {
    cooldown_ = Deadline::Never();
  }
  if (next == State::kClosed) consecutive_failures_ = 0;
}

Status CircuitBreaker::Allow() {
  switch (state_) {
    case State::kClosed:
    case State::kHalfOpen:
      return Status::Ok();
    case State::kOpen:
      if (cooldown_.Expired()) {
        TransitionTo(State::kHalfOpen);
        return Status::Ok();
      }
      return Status::Unavailable("circuit breaker open; retry in ~" +
                                 std::to_string(RetryAfter().count()) + "ms");
  }
  return Status::Ok();
}

std::chrono::milliseconds CircuitBreaker::RetryAfter() const {
  if (state_ != State::kOpen || cooldown_.IsNever()) return std::chrono::milliseconds(0);
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(cooldown_.Remaining());
  return remaining.count() > 0 ? remaining : std::chrono::milliseconds(0);
}

void CircuitBreaker::RecordSuccess() {
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      // One successful probe closes the breaker.
      TransitionTo(State::kClosed);
      break;
    case State::kOpen:
      // A success cannot originate while open (Allow refuses I/O); ignore.
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  switch (state_) {
    case State::kHalfOpen:
      // The probe failed: straight back to open, cooldown restarted.
      TransitionTo(State::kOpen);
      break;
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TransitionTo(State::kOpen);
      }
      break;
    case State::kOpen:
      break;
  }
}

}  // namespace diffc::net
