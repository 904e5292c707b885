#ifndef DIFFC_LATTICE_HITTING_SET_H_
#define DIFFC_LATTICE_HITTING_SET_H_

#include <cstdint>
#include <vector>

#include "lattice/set_family.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc {

/// Witness sets (Definition 2.5): `W` is a witness set of the family `Y`
/// iff `W ⊆ ∪Y` and `W ∩ Y ≠ ∅` for every member `Y ∈ Y`.
///
/// Witness sets of `Y` are exactly the hitting sets (transversals) of `Y`
/// drawn from `∪Y`. `W(∅) = {∅}`, and a family with an empty member has no
/// witness sets.
bool IsWitnessSet(const SetFamily& family, const ItemSet& w);

/// True iff `family` has at least one witness set (no member is empty).
bool HasWitnessSet(const SetFamily& family);

/// All witness sets of `family`, sorted by mask. Enumerates the subsets of
/// `∪Y`; returns ResourceExhausted when `|∪Y|` exceeds `max_union_bits`
/// (default 24).
Result<std::vector<ItemSet>> AllWitnessSets(const SetFamily& family,
                                            int max_union_bits = 24);

/// Work counters of a minimal-witness-set enumeration, for benchmarks and
/// the implication engine's cache statistics.
struct WitnessSearchStats {
  /// Branch-and-extend nodes visited.
  std::uint64_t nodes = 0;
  /// Leaves reached: complete transversals, counted before the minimality
  /// test and with repeats. This is the count `max_results` caps.
  std::uint64_t candidates = 0;
};

/// ∏|Y_i| over the members of `family`: an upper bound on the leaves of the
/// transversal search below, and so on its minimal witness sets. O(|Y|);
/// returns `cap + 1` as soon as a partial product exceeds `cap`.
std::uint64_t WitnessLeafBound(const SetFamily& family, std::uint64_t cap);

/// Caller-owned buffers of `MinimalWitnessMasks`. A caller that keeps one
/// across calls allocates nothing once the vectors have grown.
struct WitnessScratch {
  /// The ⊆-minimal members of the family last searched, sorted by mask.
  std::vector<Mask> members;
  /// The minimal witness sets found by the last successful call, sorted by
  /// mask.
  std::vector<Mask> witnesses;
};

/// The ⊆-minimal witness sets of `family` (the minimal transversal
/// antichain) into `scratch->witnesses`, sorted by mask. Every witness set
/// is a superset of a minimal one, so these generate the lattice
/// decomposition's interval cover.
///
/// Branch-and-extend over the family's minimal members, on masks: each
/// node branches on the bits of the first member it misses, and a leaf is
/// kept iff every chosen bit is the only chosen bit of some member (its
/// private member), which is exactly when no bit can be dropped.
///
/// `max_results` caps the leaves (`WitnessSearchStats::candidates`), so it
/// bounds the search's work as well as its output. Truncation is never
/// silent: past the cap the result is a ResourceExhausted *error*, and
/// callers must not treat `scratch->witnesses` as a (partial) answer.
/// `stats`, when non-null, receives the work counters even on the error
/// path. `stop`, when non-null, is checked (amortized) at every search
/// node; a fired deadline / cancel token aborts the search and its status
/// is returned. A family with an empty member has no witness sets.
Status MinimalWitnessMasks(const SetFamily& family, std::size_t max_results,
                           WitnessScratch* scratch, WitnessSearchStats* stats = nullptr,
                           StopCheck* stop = nullptr);

/// `MinimalWitnessMasks` with its own buffers, as `ItemSet`s.
Result<std::vector<ItemSet>> MinimalWitnessSets(const SetFamily& family,
                                                std::size_t max_results = 1 << 20,
                                                WitnessSearchStats* stats = nullptr,
                                                StopCheck* stop = nullptr);

}  // namespace diffc

#endif  // DIFFC_LATTICE_HITTING_SET_H_
