#include "engine/caches.h"

#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace diffc {

namespace {

// A cached status must describe the *key*, not the query that computed it:
// deadline / cancellation outcomes are per-query and would poison every
// later lookup of the same family if cached.
bool CacheableStatus(const Status& s) {
  return s.code() != StatusCode::kDeadlineExceeded && s.code() != StatusCode::kCancelled;
}

// Registry handles for one cache, labelled `cache=<which>`. Looked up once
// per cache kind; the increments themselves are lock-free.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* negative_entries;
  obs::Gauge* size;
  obs::Gauge* hit_ratio;

  explicit CacheMetrics(const char* which) {
    obs::Registry& r = obs::Registry::Global();
    obs::Labels labels{{"cache", which}};
    hits = r.GetCounter("diffc_cache_hits_total", "Cache lookups served from the cache.",
                        labels);
    misses = r.GetCounter("diffc_cache_misses_total",
                          "Cache lookups that had to compute the entry.", labels);
    evictions = r.GetCounter("diffc_cache_evictions_total",
                             "Entries evicted by segmented-LRU capacity pressure.", labels);
    negative_entries =
        r.GetCounter("diffc_cache_negative_entries_total",
                     "Entries cached with a non-OK status (budget-exhausted families).",
                     labels);
    size = r.GetGauge("diffc_cache_size", "Entries currently resident.", labels);
    hit_ratio = r.GetGauge("diffc_cache_hit_ratio",
                           "Lifetime hits / lookups, updated per lookup.", labels);
  }
};

CacheMetrics& WitnessMetrics() {
  static CacheMetrics* m = new CacheMetrics("witness");
  return *m;
}

CacheMetrics& PreparedMetrics() {
  static CacheMetrics* m = new CacheMetrics("prepared");
  return *m;
}

// Flushes one lookup into the per-cache counters and metrics (shared by
// both caches, which differ only in their key/value types).
void RecordLookup(AtomicCacheCounters* counters, CacheMetrics& metrics, bool hit) {
  (hit ? counters->hits : counters->misses).fetch_add(1, std::memory_order_relaxed);
  (hit ? metrics.hits : metrics.misses)->Inc();
  metrics.hit_ratio->Set(counters->Snapshot().HitRatio());
}

}  // namespace

std::shared_ptr<const WitnessSetCache::Entry> WitnessSetCache::Get(const SetFamily& family,
                                                                   std::size_t max_results,
                                                                   bool* hit, StopCheck* stop) {
  Key key{family, max_results};
  {
    MutexLock lock(&mu_);
    if (const auto* found = lru_.Find(key)) {
      RecordLookup(&counters_, WitnessMetrics(), /*hit=*/true);
      if (hit != nullptr) *hit = true;
      return *found;
    }
  }
  RecordLookup(&counters_, WitnessMetrics(), /*hit=*/false);
  if (hit != nullptr) *hit = false;

  // Compute outside the lock: the transversal search can be expensive and
  // must not serialize unrelated queries.
  auto entry = std::make_shared<Entry>();
  Result<std::vector<ItemSet>> r =
      MinimalWitnessSets(family, max_results, &entry->search, stop);
  entry->status = r.status();
  if (r.ok()) entry->witnesses = *std::move(r);

  if (!CacheableStatus(entry->status)) return entry;
  if (DIFFC_FAILPOINT("cache/witness-insert")) return entry;  // Served uncached.

  std::size_t evicted = 0;
  bool inserted_negative = false;
  std::shared_ptr<const Entry> out;
  {
    MutexLock lock(&mu_);
    // InsertIfAbsent: a concurrent miss may have populated the key while
    // we searched; reusing its entry keeps the index free of duplicates.
    out = *lru_.InsertIfAbsent(std::move(key), entry, &evicted);
    inserted_negative = out == entry && !entry->status.ok();
    WitnessMetrics().size->Set(static_cast<double>(lru_.size()));
  }
  if (evicted > 0) {
    counters_.evictions.fetch_add(evicted, std::memory_order_relaxed);
    WitnessMetrics().evictions->Inc(evicted);
  }
  if (inserted_negative) {
    counters_.negative_entries.fetch_add(1, std::memory_order_relaxed);
    WitnessMetrics().negative_entries->Inc();
  }
  return out;
}

void WitnessSetCache::Clear() {
  MutexLock lock(&mu_);
  lru_.Clear();
  WitnessMetrics().size->Set(0);
}

CacheCounters WitnessSetCache::counters() const { return counters_.Snapshot(); }

std::size_t WitnessSetCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

std::size_t PreparedPremisesCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(k.n);
  for (Mask m : k.premises) h ^= m + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h);
}

Result<std::shared_ptr<const PreparedPremises>> PreparedPremisesCache::Get(
    int n, const ConstraintSet& premises, bool* hit) {
  return Get(n, PremiseMasks::Compile(premises), hit);
}

Result<std::shared_ptr<const PreparedPremises>> PreparedPremisesCache::Get(
    int n, PremiseMasks premises, bool* hit) {
  Key key{n, {}};
  std::size_t words = 0;
  for (const PremiseMasks::Premise& p : premises.premises) words += 2 + p.size();
  key.premises.reserve(words);
  for (const PremiseMasks::Premise& p : premises.premises) {
    key.premises.push_back(p.lhs);
    key.premises.push_back(p.size());
    for (Mask y : premises.family(p)) key.premises.push_back(y);
  }
  {
    MutexLock lock(&mu_);
    if (const auto* found = lru_.Find(key)) {
      RecordLookup(&counters_, PreparedMetrics(), /*hit=*/true);
      if (hit != nullptr) *hit = true;
      return *found;
    }
  }
  RecordLookup(&counters_, PreparedMetrics(), /*hit=*/false);
  if (hit != nullptr) *hit = false;

  // Compile outside the lock; only a valid artifact is cacheable.
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, std::move(premises));
  if (!built.ok()) return built.status();

  if (DIFFC_FAILPOINT("cache/premise-insert")) return built;  // Served uncached.

  std::size_t evicted = 0;
  std::shared_ptr<const PreparedPremises> out;
  {
    MutexLock lock(&mu_);
    out = *lru_.InsertIfAbsent(std::move(key), *built, &evicted);
    PreparedMetrics().size->Set(static_cast<double>(lru_.size()));
  }
  if (evicted > 0) {
    counters_.evictions.fetch_add(evicted, std::memory_order_relaxed);
    PreparedMetrics().evictions->Inc(evicted);
  }
  return out;
}

void PreparedPremisesCache::Clear() {
  MutexLock lock(&mu_);
  lru_.Clear();
  PreparedMetrics().size->Set(0);
}

CacheCounters PreparedPremisesCache::counters() const { return counters_.Snapshot(); }

std::size_t PreparedPremisesCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

WitnessSetCache& GlobalWitnessSetCache() {
  static WitnessSetCache* cache = new WitnessSetCache();
  return *cache;
}

PreparedPremisesCache& GlobalPreparedPremisesCache() {
  static PreparedPremisesCache* cache = new PreparedPremisesCache();
  return *cache;
}

}  // namespace diffc
