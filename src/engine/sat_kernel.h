#ifndef DIFFC_ENGINE_SAT_KERNEL_H_
#define DIFFC_ENGINE_SAT_KERNEL_H_

#include <cstdint>
#include <vector>

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
Result<ImplicationOutcome> SearchCounterexample(int n, const PremiseMasks& premises,
                                                const DifferentialConstraint& goal,
                                                std::uint64_t max_nodes, StopCheck* stop,
                                                prop::SolverStats* stats);

}  // namespace diffc

#endif  // DIFFC_ENGINE_SAT_KERNEL_H_
