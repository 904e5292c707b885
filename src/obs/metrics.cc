#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace diffc::obs {

namespace {

// A stable small integer per thread, for shard selection. Thread ids
// recycle, but collisions only cost contention, never correctness.
std::size_t ThreadOrdinal() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

std::size_t Counter::ShardIndex() { return ThreadOrdinal() % kShards; }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  std::size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; spelled as a CAS loop to stay
  // portable across standard-library implementations.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor, int count) {
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  std::vector<double> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) out.push_back(start + width * i);
  return out;
}

Registry& Registry::Global() {
  // Leaked on purpose: call sites hold handles in function-local statics
  // whose destruction order vs. this registry is otherwise unsequenced.
  static Registry* registry = new Registry();
  return *registry;
}

std::string Registry::Key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              Labels labels) {
  const std::string key = Key(name, labels);
  MutexLock lock(&mu_);
  for (const Entry<Counter>& e : counters_) {
    if (Key(e.name, e.labels) == key) return e.metric.get();
  }
  counters_.push_back(Entry<Counter>{std::string(name), std::string(help),
                                     std::move(labels), std::make_unique<Counter>()});
  return counters_.back().metric.get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          Labels labels) {
  const std::string key = Key(name, labels);
  MutexLock lock(&mu_);
  for (const Entry<Gauge>& e : gauges_) {
    if (Key(e.name, e.labels) == key) return e.metric.get();
  }
  gauges_.push_back(Entry<Gauge>{std::string(name), std::string(help),
                                 std::move(labels), std::make_unique<Gauge>()});
  return gauges_.back().metric.get();
}

Histogram* Registry::GetHistogram(std::string_view name, std::string_view help,
                                  std::vector<double> bounds, Labels labels) {
  const std::string key = Key(name, labels);
  MutexLock lock(&mu_);
  for (const Entry<Histogram>& e : histograms_) {
    if (Key(e.name, e.labels) == key) return e.metric.get();
  }
  histograms_.push_back(Entry<Histogram>{std::string(name), std::string(help),
                                         std::move(labels),
                                         std::make_unique<Histogram>(std::move(bounds))});
  return histograms_.back().metric.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  snap.counters.reserve(counters_.size());
  for (const Entry<Counter>& e : counters_) {
    snap.counters.push_back(CounterSample{e.name, e.help, e.labels, e.metric->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const Entry<Gauge>& e : gauges_) {
    snap.gauges.push_back(GaugeSample{e.name, e.help, e.labels, e.metric->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const Entry<Histogram>& e : histograms_) {
    snap.histograms.push_back(HistogramSample{e.name, e.help, e.labels,
                                              e.metric->bounds(), e.metric->BucketCounts(),
                                              e.metric->Count(), e.metric->Sum()});
  }
  auto by_key = [](const auto& a, const auto& b) {
    return Key(a.name, a.labels) < Key(b.name, b.labels);
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_key);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_key);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_key);
  return snap;
}

void Registry::ResetValues() {
  MutexLock lock(&mu_);
  for (const Entry<Counter>& e : counters_) e.metric->Reset();
  for (const Entry<Gauge>& e : gauges_) e.metric->Reset();
  for (const Entry<Histogram>& e : histograms_) e.metric->Reset();
}

}  // namespace diffc::obs
