#include "net/retry.h"

#include <algorithm>
#include <string>

namespace diffc::net {

namespace {

// The backoff cap, and the half-width of the uniform jitter factor.
constexpr std::chrono::milliseconds kMaxBackoff{2000};
constexpr double kJitter = 0.2;

}  // namespace

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

  std::chrono::milliseconds delay = std::min(current_, kMaxBackoff);
  if (delay.count() > 0) {
    const double u = std::uniform_real_distribution<double>(-1.0, 1.0)(rng_);
    const auto wiggle =
        static_cast<long long>(static_cast<double>(delay.count()) * kJitter * u);
    delay += std::chrono::milliseconds(wiggle);
  }
  // The server's retry-after hint is a floor, never a discount: backing
  // off less than an overloaded server asked for just feeds the overload.
  if (server_hint > delay) delay = server_hint;

  // Advance the exponential state for the next failure.
  current_ = std::min(current_ * 2, kMaxBackoff);
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

}  // namespace diffc::net
