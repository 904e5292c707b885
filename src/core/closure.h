#ifndef DIFFC_CORE_CLOSURE_H_
#define DIFFC_CORE_CLOSURE_H_

#include <vector>

#include "core/constraint.h"
#include "util/status.h"

namespace diffc {

/// The closure lattice `L(C) = ∪_{X'->Y' ∈ C} L(X', Y')` (Theorem 3.5).
/// Everything about a constraint set — what it implies, equivalence,
/// redundancy — is determined by this set. Membership of one set is
/// `InConstraintLattice` (`core/implication.h`).

/// All elements of `L(C)` over an `n`-attribute universe, sorted by mask.
/// Exhaustive in 2^n; ResourceExhausted when `n > max_bits`.
Result<std::vector<ItemSet>> ClosureLattice(int n, const ConstraintSet& c,
                                            int max_bits = 24);

/// True iff `a` and `b` imply each other, i.e. `L(a) = L(b)`. Decided with
/// the SAT-based checker, one query per constraint.
Result<bool> AreEquivalent(int n, const ConstraintSet& a, const ConstraintSet& b);

/// The constraints of `c` that are implied by the others (safe to drop).
Result<std::vector<int>> RedundantConstraints(int n, const ConstraintSet& c);

/// A minimal cover: greedily removes redundant constraints until none
/// remains. The result is equivalent to `c` and has no redundant member
/// (not necessarily of globally minimum size).
Result<ConstraintSet> MinimalCover(int n, const ConstraintSet& c);

}  // namespace diffc

#endif  // DIFFC_CORE_CLOSURE_H_
