#ifndef DIFFC_ENGINE_SAT_KERNEL_H_
#define DIFFC_ENGINE_SAT_KERNEL_H_

#include <cstdint>
#include <span>

#include "core/constraint.h"
#include "core/implication.h"
#include "core/premise_masks.h"
#include "prop/dpll.h"
#include "util/bitops.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc {

/// Decides `premises |= goal` by searching for the Theorem 3.5
/// counterexample directly over attribute masks: a set `U ⊇ X` that
/// contains no goal member and lies outside `L(C)` (the search Prop. 5.4
/// encodes as a CNF). The state is a pair of disjoint masks `in ⊆ U` and
/// `out ∩ U = ∅`, propagated to a fixpoint at every node:
///
///   - a goal member needs a bit in `out`; its last open bit goes there;
///   - a premise whose `X'` lies inside `in` needs a member with no bit in
///     `out`; a sole such member goes into `in`, and with none left some
///     bit of `X'` must go to `out` (the last open one, or a conflict).
///
/// The search branches on one open bit of a violated premise's member (in,
/// then out) and answers `U = in` once no premise is violated; an
/// exhausted tree means implied. It allocates nothing, checks `stop` (when
/// non-null) at every node, and returns ResourceExhausted once more than
/// `max_nodes` nodes were visited. `stats`, when non-null, receives the
/// search nodes (in `decisions`), unit propagations and conflicts.
///
/// `seeds`, when nonempty, lists witness sets `W` of the goal family, each
/// naming the interval `[X, S∖W]` of `L(X, Y)` (Definition 2.6), and the
/// caller vouches that every counterexample lies in one of them (interval
/// cover passes the intervals no single premise covers). The search then
/// starts from `(X, W ∪ outside)` for each `W` in turn, under the one node
/// budget, instead of once from `(X, outside)`. A tree over f = n − |X|
/// free attributes has at most 2^(f+1) − 1 nodes and a seeded one at most
/// 2^(f−|W|+1) − 1, so the seeds are used only when Σ 2^−|W| ≤ 1, which
/// keeps the unseeded bound; otherwise the search runs unseeded.
Result<ImplicationOutcome> SearchCounterexample(int n, const PremiseMasks& premises,
                                                const DifferentialConstraint& goal,
                                                std::uint64_t max_nodes, StopCheck* stop,
                                                prop::SolverStats* stats,
                                                std::span<const Mask> seeds = {});

}  // namespace diffc

#endif  // DIFFC_ENGINE_SAT_KERNEL_H_
