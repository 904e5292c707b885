#include "net/admission.h"

#include <algorithm>
#include <string>

namespace diffc::net {

namespace {

/// EWMA smoothing factor: ~the last five batches dominate, so the hint
/// tracks load shifts within a few requests without jumping on one
/// outlier.
constexpr double kEwmaAlpha = 0.2;

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
  if (inflight_ >= options_.max_inflight_batches) {
    return Status::ResourceExhausted(
        "server at capacity: " + std::to_string(inflight_) + " of " +
        std::to_string(options_.max_inflight_batches) +
        " batch slots in flight; retry after in-flight batches finish");
  }
  ++inflight_;
  return Slot(this);
}

bool AdmissionController::ShouldShed() const {
  MutexLock lock(&mu_);
  return options_.shed_watermark > 0 && inflight_ >= options_.shed_watermark;
}

std::chrono::milliseconds AdmissionController::RetryAfterHint() const {
  MutexLock lock(&mu_);
  const auto lo = static_cast<double>(options_.min_retry_after.count());
  const auto hi = static_cast<double>(options_.max_retry_after.count());
  const double hint = std::clamp(ewma_latency_ms_, lo, std::max(lo, hi));
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
