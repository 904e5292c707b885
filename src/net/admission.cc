#include "net/admission.h"

#include <algorithm>
#include <string>

namespace diffc::net {

namespace {

/// EWMA smoothing factor: ~the last five batches dominate, so the hint
/// tracks load shifts within a few requests without jumping on one
/// outlier.
constexpr double kEwmaAlpha = 0.2;

/// Clamp on `RetryAfterHint()`, in milliseconds.
constexpr double kMinRetryAfterMs = 10;
constexpr double kMaxRetryAfterMs = 2000;

}  // namespace

void AdmissionController::Slot::Reset() {
  if (ctrl_ != nullptr) {
    const double held_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    ctrl_->Release(held_ms);
    ctrl_ = nullptr;
  }
}

Result<AdmissionController::Slot> AdmissionController::Admit() {
  MutexLock lock(&mu_);
  if (inflight_ >= capacity_) {
    return Status::ResourceExhausted(
        "server at capacity: " + std::to_string(inflight_) + " of " + std::to_string(capacity_) +
        " batch slots in flight; retry after in-flight batches finish");
  }
  ++inflight_;
  return Slot(this);
}

std::chrono::milliseconds AdmissionController::RetryAfterHint() const {
  MutexLock lock(&mu_);
  const double hint = std::clamp(ewma_latency_ms_, kMinRetryAfterMs, kMaxRetryAfterMs);
  return std::chrono::milliseconds(static_cast<long long>(hint));
}

std::size_t AdmissionController::inflight() const {
  MutexLock lock(&mu_);
  return inflight_;
}

double AdmissionController::ewma_latency_ms() const {
  MutexLock lock(&mu_);
  return ewma_latency_ms_;
}

void AdmissionController::Release(double latency_ms) {
  MutexLock lock(&mu_);
  if (inflight_ > 0) --inflight_;
  ewma_latency_ms_ = ewma_latency_ms_ <= 0.0
                         ? latency_ms
                         : kEwmaAlpha * latency_ms + (1.0 - kEwmaAlpha) * ewma_latency_ms_;
}

}  // namespace diffc::net
