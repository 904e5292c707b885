#ifndef DIFFC_ENGINE_CACHES_H_
#define DIFFC_ENGINE_CACHES_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "engine/prepared_premises.h"
#include "lattice/hitting_set.h"
#include "lattice/set_family.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffc {

/// Aggregate counters of a shared cache.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries cached with a non-OK status (budget-exhausted families served
  /// negatively). Always 0 for caches that never store failures.
  std::uint64_t negative_entries = 0;

  /// hits / (hits + misses), 0 before the first lookup.
  double HitRatio() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Internal: the atomic counter block behind `CacheCounters`. The counters
/// are deliberately *not* guarded by the cache's map mutex — they are
/// mutated and snapshotted with atomics, so a reader calling `counters()`
/// mid-`Get` can never race the increments (the old plain-field version
/// could, when a snapshot was taken without the lock). Registry-backed
/// metrics mirror every increment, so dashboards see the same numbers.
struct AtomicCacheCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> negative_entries{0};

  CacheCounters Snapshot() const {
    CacheCounters c;
    c.hits = hits.load(std::memory_order_relaxed);
    c.misses = misses.load(std::memory_order_relaxed);
    c.evictions = evictions.load(std::memory_order_relaxed);
    c.negative_entries = negative_entries.load(std::memory_order_relaxed);
    return c;
  }
};

/// A segmented-LRU map: the shared eviction index of the engine caches.
///
/// New entries enter a *probationary* segment; a hit promotes the entry to
/// the *protected* segment's MRU position (capped at ~80% of capacity,
/// with protected overflow demoted back to probationary MRU). Eviction
/// takes the probationary LRU first, so a one-shot scan of cold keys can
/// only churn the probationary segment — entries with at least two
/// touches survive floods that would wipe a plain FIFO or LRU.
///
/// Not internally synchronized: callers wrap it in their own mutex (the
/// engine caches compute values outside the lock and insert under it).
template <typename Key, typename Value, typename KeyHash>
class SegmentedLruMap {
 public:
  explicit SegmentedLruMap(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        protected_capacity_(capacity_ * 4 / 5) {}

  /// The value for `key`, or null. A hit promotes the entry (probationary
  /// entries move to protected; protected entries refresh to MRU).
  const Value* Find(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    Promote(it->second);
    return &it->second.value;
  }

  /// Inserts `(key, value)` if the key is absent, evicting (probationary
  /// LRU first) past capacity; `*evicted` receives the eviction count.
  /// Returns the resident value — the existing one on a duplicate insert,
  /// so racing computations of the same key converge on one entry.
  const Value* InsertIfAbsent(const Key& key, Value value, std::size_t* evicted) {
    *evicted = 0;
    auto it = map_.find(key);
    if (it != map_.end()) return &it->second.value;
    while (map_.size() >= capacity_) {
      EvictOne();
      ++*evicted;
    }
    probation_.push_front(key);
    Node node;
    node.value = std::move(value);
    node.pos = probation_.begin();
    node.in_protected = false;
    return &map_.emplace(key, std::move(node)).first->second.value;
  }

  void Clear() {
    map_.clear();
    probation_.clear();
    protected_.clear();
  }

  std::size_t size() const { return map_.size(); }

  /// Entries currently in the protected segment (survived ≥ 1 hit).
  std::size_t protected_size() const { return protected_.size(); }

 private:
  struct Node {
    Value value;
    typename std::list<Key>::iterator pos;
    bool in_protected = false;
  };

  void Promote(Node& node) {
    if (node.in_protected) {
      protected_.splice(protected_.begin(), protected_, node.pos);
      return;
    }
    protected_.splice(protected_.begin(), probation_, node.pos);
    node.in_protected = true;
    // Protected overflow demotes its LRU entry back to probationary MRU —
    // it keeps its value and can earn its way back with another hit.
    while (protected_.size() > protected_capacity_) {
      auto demoted = map_.find(protected_.back());
      probation_.splice(probation_.begin(), protected_, demoted->second.pos);
      demoted->second.in_protected = false;
    }
  }

  void EvictOne() {
    std::list<Key>& victims = probation_.empty() ? protected_ : probation_;
    map_.erase(victims.back());
    victims.pop_back();
  }

  const std::size_t capacity_;
  const std::size_t protected_capacity_;
  std::unordered_map<Key, Node, KeyHash> map_;
  std::list<Key> probation_;   // MRU at front; evict from the back.
  std::list<Key> protected_;   // MRU at front; demote from the back.
};

/// A process-wide cache of minimal witness sets keyed on the right-hand
/// family — the dominant cost of the lattice side of implication checking
/// (`lattice/hitting_set.cc`). Batches that repeat right-hand families
/// (re-validating derived constraints, mining loops) hit the cache and skip
/// the transversal search entirely.
///
/// Entries record the enumeration `Status` as well: a family whose
/// enumeration exhausted its budget is cached negatively, so hostile
/// or degenerate families are not re-searched on every query.
///
/// Thread-safe. The enumeration itself runs outside the lock, so
/// concurrent misses on the same key may duplicate work (both results are
/// equal; the first insert wins).
class WitnessSetCache {
 public:
  /// The cached outcome of `MinimalWitnessSets(family, max_results)`.
  struct Entry {
    /// OK, or the enumeration error (ResourceExhausted on truncation).
    Status status;
    /// The minimal witness sets; meaningful only when `status.ok()`.
    std::vector<ItemSet> witnesses;
    /// Work counters of the (single) enumeration that populated the entry.
    WitnessSearchStats search;
  };

  /// A cache holding at most `capacity` entries (segmented-LRU eviction).
  explicit WitnessSetCache(std::size_t capacity = 4096) : lru_(capacity) {}

  /// The minimal witness sets of `family` under `max_results`, computed on
  /// miss. `hit`, when non-null, receives whether the entry was cached.
  /// `stop`, when non-null, bounds the miss-path enumeration; an entry
  /// whose status is DeadlineExceeded / Cancelled is returned to the
  /// caller but never cached — those statuses describe this query's
  /// deadline, not the family.
  std::shared_ptr<const Entry> Get(const SetFamily& family, std::size_t max_results,
                                   bool* hit = nullptr, StopCheck* stop = nullptr)
      EXCLUDES(mu_);

  /// Drops every entry (counters are kept).
  void Clear() EXCLUDES(mu_);

  /// Lifetime hit/miss/eviction counters.
  CacheCounters counters() const;

  /// Number of cached entries.
  std::size_t size() const EXCLUDES(mu_);

 private:
  struct Key {
    SetFamily family;
    std::size_t max_results;
    bool operator==(const Key& o) const {
      return max_results == o.max_results && family == o.family;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.family.Hash() * 31 + k.max_results;
    }
  };

  mutable Mutex mu_;
  SegmentedLruMap<Key, std::shared_ptr<const Entry>, KeyHash> lru_ GUARDED_BY(mu_);
  AtomicCacheCounters counters_;
};

/// A process-wide cache of compiled premise artifacts (`PreparedPremises`)
/// keyed on the raw (universe size, premise arena) pair — the bridge that
/// lets the unprepared engine API (`CheckBatch(n, premises, goals)`)
/// amortize compilation exactly like an explicit `Prepare()` call: the
/// canonical arena and the FD closure index are built once per distinct
/// premise set and shared read-only by every query, batch, and engine
/// instance.
///
/// Thread-safe, with the same duplicate-miss policy as `WitnessSetCache`.
class PreparedPremisesCache {
 public:
  /// A cache holding at most `capacity` entries (segmented-LRU eviction).
  explicit PreparedPremisesCache(std::size_t capacity = 256) : lru_(capacity) {}

  /// The prepared artifact for `premises` over `n` attributes. The key is
  /// built from the arena; on a miss the arena itself goes to
  /// `PreparedPremises::Build`, which rewrites it in place. Every family
  /// must be sorted and unique, so one set hits one entry whichever way it
  /// arrived. `hit`, when non-null, receives whether the entry was cached.
  /// Fails only on invalid `n` (InvalidArgument, never cached).
  Result<std::shared_ptr<const PreparedPremises>> Get(int n, PremiseMasks premises,
                                                      bool* hit = nullptr) EXCLUDES(mu_);

  /// `Get` over `PremiseMasks::Compile(premises)`.
  Result<std::shared_ptr<const PreparedPremises>> Get(int n, const ConstraintSet& premises,
                                                      bool* hit = nullptr) EXCLUDES(mu_);

  /// Drops every entry (counters are kept).
  void Clear() EXCLUDES(mu_);

  /// Lifetime hit/miss/eviction counters.
  CacheCounters counters() const;

  /// Number of cached entries.
  std::size_t size() const EXCLUDES(mu_);

 private:
  // The raw input, flattened into one allocation: per premise, its lhs,
  // its member count and its members.
  struct Key {
    int n;
    std::vector<Mask> premises;
    bool operator==(const Key& o) const { return n == o.n && premises == o.premises; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  mutable Mutex mu_;
  SegmentedLruMap<Key, std::shared_ptr<const PreparedPremises>, KeyHash> lru_
      GUARDED_BY(mu_);
  AtomicCacheCounters counters_;
};

/// The process-wide witness-set cache shared by every engine instance.
WitnessSetCache& GlobalWitnessSetCache();

/// The process-wide prepared-premises cache shared by every engine
/// instance.
PreparedPremisesCache& GlobalPreparedPremisesCache();

}  // namespace diffc

#endif  // DIFFC_ENGINE_CACHES_H_
