#ifndef DIFFC_NET_ADMISSION_H_
#define DIFFC_NET_ADMISSION_H_

#include <chrono>
#include <cstddef>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffc::net {

/// Admission control for the expensive request class: a fixed budget of
/// concurrently executing CHECK_BATCH requests. A full server *rejects*
/// (a typed OVERLOADED reply carrying a retry-after hint, counted in
/// `diffc_net_admission_rejected_total`) instead of queueing — the client
/// owns the retry policy, and the server's memory is bounded by
/// construction (queues are where overload hides).
///
/// `RetryAfterHint()` turns the EWMA batch latency into the backoff the
/// OVERLOADED reply advertises — a loaded server tells clients how long its
/// batches are actually taking.
///
/// Handle quotas — the other admission axis — live in
/// `PreparedHandleTable`, enforced at registration.
class AdmissionController {
 public:
  /// An RAII in-flight slot: holding one is the permission to run a batch;
  /// the destructor returns it. Move-only; default-constructed slots hold
  /// nothing.
  class Slot {
   public:
    Slot() = default;
    ~Slot() { Reset(); }
    Slot(Slot&& other) noexcept : ctrl_(other.ctrl_), start_(other.start_) {
      other.ctrl_ = nullptr;
    }
    Slot& operator=(Slot&& other) noexcept {
      if (this != &other) {
        Reset();
        ctrl_ = other.ctrl_;
        start_ = other.start_;
        other.ctrl_ = nullptr;
      }
      return *this;
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    bool held() const { return ctrl_ != nullptr; }
    /// Returns the slot early (idempotent), feeding the held duration into
    /// the controller's latency EWMA.
    void Reset();

   private:
    friend class AdmissionController;
    explicit Slot(AdmissionController* ctrl)
        : ctrl_(ctrl), start_(std::chrono::steady_clock::now()) {}
    AdmissionController* ctrl_ = nullptr;
    std::chrono::steady_clock::time_point start_{};
  };

  /// A controller with `max_inflight_batches` slots.
  explicit AdmissionController(std::size_t max_inflight_batches)
      : capacity_(max_inflight_batches) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Tries to take an in-flight slot. ResourceExhausted when the budget is
  /// fully occupied.
  Result<Slot> Admit() EXCLUDES(mu_);

  /// The retry-after hint for a rejected request: the EWMA batch latency
  /// (how long until a slot plausibly frees), clamped to [10 ms, 2 s].
  std::chrono::milliseconds RetryAfterHint() const EXCLUDES(mu_);

  /// Currently occupied slots.
  std::size_t inflight() const EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }

  /// The EWMA batch latency in milliseconds (0 until a batch finishes);
  /// tests and gauges.
  double ewma_latency_ms() const EXCLUDES(mu_);

 private:
  void Release(double latency_ms) EXCLUDES(mu_);

  const std::size_t capacity_;
  mutable Mutex mu_;
  std::size_t inflight_ GUARDED_BY(mu_) = 0;
  double ewma_latency_ms_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace diffc::net

#endif  // DIFFC_NET_ADMISSION_H_
