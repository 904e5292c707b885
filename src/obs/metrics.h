#ifndef DIFFC_OBS_METRICS_H_
#define DIFFC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffc::obs {

/// Process-wide metrics: named counters, gauges, and fixed-bucket
/// histograms, registered once and incremented lock-free on hot paths.
///
/// Naming scheme: `diffc_<subsystem>_<name>[_total|_seconds]`, with
/// Prometheus conventions (`_total` for counters, base-unit seconds for
/// durations). A metric handle is looked up once (typically a function-local
/// static) and then used forever — handles are never invalidated, not even
/// by `Registry::ResetValues()`, which zeroes values but keeps every
/// registration.
///
/// Recording discipline: the library never increments metrics inside solver
/// inner loops. Work counters are accumulated thread-locally (e.g.
/// `prop::SolverStats`) and flushed in O(1) atomics at procedure exit, so
/// the whole layer costs a handful of relaxed atomic adds per query.

/// A fixed label set attached to a metric at registration time, e.g.
/// {{"procedure", "sat"}}. Rendered as `name{k="v",...}` in Prometheus
/// text format. Label values are escaped by the exposition layer.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter. Increments are relaxed atomic adds
/// sharded across cache lines, so concurrent writers on different cores do
/// not contend; `Value()` sums the shards (each shard read is atomic; the
/// sum is a consistent-enough snapshot for exposition).
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void Inc(std::uint64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t ShardIndex();

  Shard shards_[kShards];
};

/// A gauge: a value that can go up and down (queue depth, cache size,
/// in-flight tasks) or hold a ratio (cache hit rate). Double-valued so
/// fractional gauges need no fixed-point encoding; integral values render
/// without a decimal point in the exposition layer. All operations are
/// single relaxed atomics (`Add`/`Sub` spell the read-modify-write as a CAS
/// loop, like `Histogram`'s sum, to avoid relying on C++20 floating-point
/// `fetch_add` support).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double expected = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(expected, expected + d,
                                         std::memory_order_relaxed)) {
    }
  }
  void Sub(double d) { Add(-d); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> value_{0};
};

/// A fixed-bucket histogram with Prometheus semantics: `bounds` are
/// ascending inclusive upper bounds (`le`), with an implicit +Inf bucket.
/// `Observe` is a binary search plus two relaxed atomic adds (bucket and
/// count) and one CAS-loop add (sum); no locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Per-bucket (non-cumulative) counts; size `bounds().size() + 1`, the
  /// last entry being the +Inf bucket.
  std::vector<std::uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` exponential bucket bounds starting at `start`, each `factor`
/// times the previous — the default shape for latency histograms.
std::vector<double> ExponentialBuckets(double start, double factor, int count);

/// `count` linear bucket bounds: start, start+width, ...
std::vector<double> LinearBuckets(double start, double width, int count);

/// One sampled counter / gauge / histogram in a snapshot, carrying its
/// registration metadata so the exposition layer is self-contained.
struct CounterSample {
  std::string name;
  std::string help;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  Labels labels;
  double value = 0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  Labels labels;
  std::vector<double> bounds;
  /// Non-cumulative per-bucket counts, size `bounds.size() + 1` (+Inf last).
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A point-in-time copy of every registered metric, sorted by
/// (name, labels) for deterministic exposition.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// The metrics registry. Registration takes a mutex (cold path, once per
/// call site); the returned handles are lock-free and live for the life of
/// the registry. Re-registering the same (name, labels) returns the same
/// handle; help text and histogram bounds are fixed by the first
/// registration.
///
/// `Global()` is the process-wide instance every library call site uses;
/// local instances exist for tests of the registry itself.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {}) EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {}) EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds, Labels labels = {}) EXCLUDES(mu_);

  /// A consistent point-in-time copy of every metric. Registration is
  /// blocked for the duration; values are atomic reads.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every value; registrations (and outstanding handles) survive.
  void ResetValues() EXCLUDES(mu_);

 private:
  template <typename M>
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<M> metric;
  };

  static std::string Key(std::string_view name, const Labels& labels);

  mutable Mutex mu_;
  std::vector<Entry<Counter>> counters_ GUARDED_BY(mu_);
  std::vector<Entry<Gauge>> gauges_ GUARDED_BY(mu_);
  std::vector<Entry<Histogram>> histograms_ GUARDED_BY(mu_);
};

}  // namespace diffc::obs

#endif  // DIFFC_OBS_METRICS_H_
