#include "lattice/hitting_set.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace diffc {

namespace {

// Registry handles for the minimal-transversal search. The DFS touches only
// the local `WitnessSearchStats`; these are flushed once per call.
struct WitnessMetrics {
  obs::Counter* searches;
  obs::Counter* nodes;
  obs::Counter* candidates;
  obs::Counter* truncations;

  WitnessMetrics() {
    obs::Registry& r = obs::Registry::Global();
    searches =
        r.GetCounter("diffc_witness_searches_total", "MinimalWitnessSets() calls.");
    nodes = r.GetCounter("diffc_witness_nodes_total",
                         "Transversal search tree nodes visited.");
    candidates = r.GetCounter("diffc_witness_candidates_total",
                              "Candidate transversals emitted by the search.");
    truncations =
        r.GetCounter("diffc_witness_truncations_total",
                     "Searches aborted by the candidate budget (ResourceExhausted).");
  }
};

WitnessMetrics& Metrics() {
  static WitnessMetrics* m = new WitnessMetrics();
  return *m;
}

// Flushes one finished (or aborted) search into the registry.
void FlushSearchMetrics(const WitnessSearchStats& stats, bool truncated) {
  WitnessMetrics& m = Metrics();
  m.searches->Inc();
  if (stats.nodes > 0) m.nodes->Inc(stats.nodes);
  if (stats.candidates > 0) m.candidates->Inc(stats.candidates);
  if (truncated) m.truncations->Inc();
}

}  // namespace

bool IsWitnessSet(const SetFamily& family, const ItemSet& w) {
  if (!w.IsSubsetOf(family.UnionOfMembers())) return false;
  for (const ItemSet& m : family.members()) {
    if (m.Intersect(w).empty()) return false;
  }
  return true;
}

bool HasWitnessSet(const SetFamily& family) { return !family.HasEmptyMember(); }

Result<std::vector<ItemSet>> AllWitnessSets(const SetFamily& family, int max_union_bits) {
  std::vector<ItemSet> out;
  if (family.HasEmptyMember()) return out;  // No W can hit ∅.
  ItemSet pool = family.UnionOfMembers();
  if (pool.size() > max_union_bits) {
    return Status::ResourceExhausted("witness enumeration over " +
                                     std::to_string(pool.size()) + " items");
  }
  ForEachSubset(pool.bits(), [&](Mask w) {
    ItemSet cand(w);
    bool hits_all = true;
    for (const ItemSet& m : family.members()) {
      if (m.Intersect(cand).empty()) {
        hits_all = false;
        break;
      }
    }
    if (hits_all) out.push_back(cand);
  });
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// Depth-first minimal-transversal enumeration. `members` is the minimized
// antichain; `chosen` hits members[0..idx). At each step, branch on the
// elements of the first member not yet hit. An element is skipped when some
// already-chosen element would become redundant, which prunes (most)
// non-minimal candidates; a final antichain filter guarantees minimality.
struct TransversalSearch {
  const std::vector<ItemSet>* members;
  std::unordered_set<Mask> seen;
  std::vector<ItemSet> results;
  std::size_t max_results;
  WitnessSearchStats stats;
  bool overflow = false;
  StopCheck* stop = nullptr;
  Status stop_status;

  void Run(ItemSet chosen, size_t idx) {
    if (overflow || !stop_status.ok()) return;
    if (stop != nullptr) {
      Status s = stop->Check();
      if (!s.ok()) {
        stop_status = std::move(s);
        return;
      }
    }
    ++stats.nodes;
    // Find the first member not hit by `chosen`.
    while (idx < members->size() && !(*members)[idx].Intersect(chosen).empty()) ++idx;
    if (idx == members->size()) {
      if (seen.insert(chosen.bits()).second) {
        if (results.size() >= max_results) {
          overflow = true;
          return;
        }
        ++stats.candidates;
        results.push_back(chosen);
      }
      return;
    }
    ForEachBit((*members)[idx].bits(),
               [&](int b) { Run(chosen.Union(ItemSet::Singleton(b)), idx + 1); });
  }
};

}  // namespace

Result<std::vector<ItemSet>> MinimalWitnessSets(const SetFamily& family,
                                                std::size_t max_results,
                                                WitnessSearchStats* stats,
                                                StopCheck* stop) {
  if (family.HasEmptyMember()) {
    FlushSearchMetrics(WitnessSearchStats{}, /*truncated=*/false);
    return std::vector<ItemSet>{};
  }
  if (DIFFC_FAILPOINT("witness/truncate")) {
    if (stats != nullptr) *stats = WitnessSearchStats{};
    FlushSearchMetrics(WitnessSearchStats{}, /*truncated=*/true);
    return Status::ResourceExhausted(
        "failpoint witness/truncate: candidate transversal budget exceeded");
  }
  SetFamily minimized = family.Minimized();
  TransversalSearch search;
  search.members = &minimized.members();
  search.max_results = max_results;
  search.stop = stop;
  search.Run(ItemSet(), 0);
  if (stats != nullptr) *stats = search.stats;
  FlushSearchMetrics(search.stats, search.overflow);
  if (!search.stop_status.ok()) return search.stop_status;
  if (search.overflow) {
    // A truncated enumeration is an error, never a partial answer: callers
    // (decomposition covers, the implication engine's witness cache) would
    // otherwise treat an incomplete transversal antichain as complete.
    return Status::ResourceExhausted("more than " + std::to_string(max_results) +
                                     " candidate transversals");
  }
  // The branch-and-extend search can emit non-minimal transversals (an early
  // choice may be subsumed by later forced choices); keep the antichain.
  std::vector<ItemSet>& cands = search.results;
  std::sort(cands.begin(), cands.end(), [](const ItemSet& a, const ItemSet& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  std::vector<ItemSet> minimal;
  for (const ItemSet& c : cands) {
    bool dominated = false;
    for (const ItemSet& m : minimal) {
      if (m.IsSubsetOf(c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(c);
  }
  std::sort(minimal.begin(), minimal.end());
  return minimal;
}

}  // namespace diffc
