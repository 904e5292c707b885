#include "lattice/hitting_set.h"

#include <algorithm>
#include <string>

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
    searches = r.GetCounter("diffc_witness_searches_total",
                            "Minimal-witness-set searches (MinimalWitnessMasks calls).");
    nodes = r.GetCounter("diffc_witness_nodes_total",
                         "Transversal search tree nodes visited.");
    candidates =
        r.GetCounter("diffc_witness_candidates_total",
                     "Search leaves (complete transversals, before the minimality test).");
    truncations =
        r.GetCounter("diffc_witness_truncations_total",
                     "Searches aborted by the leaf budget (ResourceExhausted).");
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

std::uint64_t WitnessLeafBound(const SetFamily& family, std::uint64_t cap) {
  std::uint64_t bound = 1;
  for (const ItemSet& m : family.members()) {
    const auto size = static_cast<std::uint64_t>(m.size());
    if (size != 0 && bound > cap / size) return cap + 1;
    bound *= size;
  }
  return bound;
}

namespace {

// Depth-first minimal-transversal enumeration over the minimal members.
// `chosen` hits members[0..idx); each node branches on the bits of the
// first member it misses, so every minimal transversal is reached (follow
// its own bits) and every leaf is a transversal. Leaves are kept iff
// minimal; one minimal transversal can be reached along several paths, so
// the caller sorts and deduplicates.
struct TransversalSearch {
  TransversalSearch(const std::vector<Mask>& members, std::vector<Mask>& out,
                    std::size_t max_results, StopCheck* stop)
      : members(members), out(out), max_results(max_results), stop(stop) {}

  const std::vector<Mask>& members;
  std::vector<Mask>& out;
  std::size_t max_results;
  StopCheck* stop;
  WitnessSearchStats stats;
  bool overflow = false;
  Status stop_status;

  // A transversal is minimal iff each chosen bit is the only chosen bit of
  // some member: dropping that bit would leave the member unhit.
  bool IsMinimal(Mask chosen) const {
    Mask needed = 0;
    for (Mask y : members) {
      const Mask h = y & chosen;
      if ((h & (h - 1)) == 0) needed |= h;
    }
    return needed == chosen;
  }

  void Run(Mask chosen, std::size_t idx) {
    if (stop != nullptr) {
      Status s = stop->Check();
      if (!s.ok()) {
        stop_status = std::move(s);
        return;
      }
    }
    ++stats.nodes;
    while (idx < members.size() && (members[idx] & chosen) != 0) ++idx;
    if (idx == members.size()) {
      if (stats.candidates >= max_results) {
        overflow = true;
        return;
      }
      ++stats.candidates;
      if (IsMinimal(chosen)) out.push_back(chosen);
      return;
    }
    for (Mask rest = members[idx]; rest != 0; rest &= rest - 1) {
      Run(chosen | (Mask{1} << LowestBit(rest)), idx + 1);
      if (overflow || !stop_status.ok()) return;
    }
  }
};

}  // namespace

Status MinimalWitnessMasks(const SetFamily& family, std::size_t max_results,
                           WitnessScratch* scratch, WitnessSearchStats* stats,
                           StopCheck* stop) {
  scratch->witnesses.clear();
  if (family.HasEmptyMember()) {
    if (stats != nullptr) *stats = WitnessSearchStats{};
    FlushSearchMetrics(WitnessSearchStats{}, /*truncated=*/false);
    return Status::Ok();
  }
  if (DIFFC_FAILPOINT("witness/truncate")) {
    if (stats != nullptr) *stats = WitnessSearchStats{};
    FlushSearchMetrics(WitnessSearchStats{}, /*truncated=*/true);
    return Status::ResourceExhausted(
        "failpoint witness/truncate: candidate transversal budget exceeded");
  }
  // Members are sorted by mask and a subset never has the larger mask, so
  // one pass against the members kept so far leaves the minimal ones.
  std::vector<Mask>& members = scratch->members;
  members.clear();
  for (const ItemSet& m : family.members()) {
    const bool minimal = std::none_of(members.begin(), members.end(),
                                      [&](Mask kept) { return IsSubset(kept, m.bits()); });
    if (minimal) members.push_back(m.bits());
  }
  TransversalSearch search(members, scratch->witnesses, max_results, stop);
  search.Run(0, 0);
  if (stats != nullptr) *stats = search.stats;
  FlushSearchMetrics(search.stats, search.overflow);
  if (!search.stop_status.ok()) return search.stop_status;
  if (search.overflow) {
    // A truncated enumeration is an error, never a partial answer: callers
    // (decomposition covers, the implication engine's interval cover)
    // would otherwise treat an incomplete transversal antichain as complete.
    return Status::ResourceExhausted("more than " + std::to_string(max_results) +
                                     " candidate transversals");
  }
  std::vector<Mask>& out = scratch->witnesses;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return Status::Ok();
}

Result<std::vector<ItemSet>> MinimalWitnessSets(const SetFamily& family,
                                                std::size_t max_results,
                                                WitnessSearchStats* stats,
                                                StopCheck* stop) {
  WitnessScratch scratch;
  Status s = MinimalWitnessMasks(family, max_results, &scratch, stats, stop);
  if (!s.ok()) return s;
  std::vector<ItemSet> out;
  out.reserve(scratch.witnesses.size());
  for (Mask w : scratch.witnesses) out.push_back(ItemSet(w));
  return out;
}

}  // namespace diffc
