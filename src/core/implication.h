#ifndef DIFFC_CORE_IMPLICATION_H_
#define DIFFC_CORE_IMPLICATION_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "core/premise_masks.h"
#include "prop/dpll.h"
#include "prop/tautology.h"
#include "util/status.h"

namespace diffc {

/// The answer to an implication query `C |= X -> Y`.
struct ImplicationOutcome {
  /// Three-valued answer. The core decision procedures only ever produce
  /// kImplied / kNotImplied; kUnknown is reserved for the implication
  /// engine's `ExhaustionPolicy::kDegrade`, which converts a deadline or
  /// budget exhaustion into an OK result carrying this verdict (the query
  /// stats record which procedure ran out). Unscoped on purpose, so
  /// `ImplicationOutcome::kUnknown` reads naturally at call sites.
  enum Verdict { kNotImplied = 0, kImplied = 1, kUnknown = 2 };

  /// True iff the constraint is implied. Kept in sync with `verdict`
  /// (kUnknown reads as not implied here; check `verdict` when the engine
  /// may degrade).
  bool implied = false;
  /// The three-valued verdict; authoritative under degrade policies.
  Verdict verdict = kNotImplied;
  /// When not implied: a set `U ∈ L(X, Y) ∖ L(C)`. The function `f_U`
  /// (Theorem 3.5) and the one-basket list `(U)` (Proposition 6.4) built
  /// from it satisfy `C` and violate the goal; see `core/counterexample.h`.
  std::optional<ItemSet> counterexample;

  void SetImplied() {
    implied = true;
    verdict = kImplied;
    counterexample.reset();
  }
  void SetNotImplied(const ItemSet& cx) {
    implied = false;
    verdict = kNotImplied;
    counterexample = cx;
  }
  void SetUnknown() {
    implied = false;
    verdict = kUnknown;
    counterexample.reset();
  }
};

/// InvalidArgument unless `n` is in [0, 64] and the left-hand side and
/// every right-hand member of `c` lie inside the `n`-attribute universe.
/// `role` names `c` in the message ("goal", "premise", "given"), worded as
/// the wire decoder words it. The deciders below check the goal and every
/// premise with it, `DeriveImplied` its goal and givens, and the
/// implication engine each goal.
Status CheckInUniverse(int n, const DifferentialConstraint& c, const char* role);
/// `CheckInUniverse` over every premise of an arena, with role "premise":
/// the check `PreparedPremises::Build` makes once per artifact.
Status CheckInUniverse(int n, const PremiseMasks& premises);

/// True iff `u` lies in the closure lattice `L(C) = ∪ L(X_i, Y_i)` of
/// `premises` — i.e. `u` is excluded as a counterexample by some premise.
/// O(|C|) set operations; the building block of the engine's interval-cover
/// fast path.
bool InConstraintLattice(const ConstraintSet& premises, const ItemSet& u);
/// `InConstraintLattice` over a premise arena: the engine's form.
bool InConstraintLattice(const PremiseMasks& premises, Mask u);

/// Decides `premises |= goal` by the syntactic criterion of Theorem 3.5,
/// `L(C) ⊇ L(X, Y)`, checked by exhaustive enumeration of `L(X, Y)`.
/// Exact but exponential; requires `n - |X| <= max_free_bits`. `stop`,
/// when non-null, is checked (amortized) per enumerated set; a fired
/// deadline / cancel token aborts and its status is returned.
Result<ImplicationOutcome> CheckImplicationExhaustive(int n, const ConstraintSet& premises,
                                                      const DifferentialConstraint& goal,
                                                      int max_free_bits = 24,
                                                      StopCheck* stop = nullptr);

/// The premise side of the Proposition 5.4 CNF, reusable across goals.
///
/// Variables 1..n are the attribute variables `u_a`; variables n+1..num_vars
/// are the auxiliary member variables. Goal clauses mention only attribute
/// variables, so the (dominant) premise clauses can be built once per
/// `ConstraintSet` and shared by every query against it. The implication
/// engine does not use it: its `sat` procedure searches premise masks
/// directly (`engine/sat_kernel.h`).
struct PremiseTranslation {
  /// Total variable count: `n` attribute variables plus one auxiliary per
  /// premise right-hand member.
  int num_vars = 0;
  /// The premise clauses (auxiliary definitions interleaved with each
  /// premise's main clause, in premise order).
  std::vector<prop::Clause> clauses;
};

/// Builds the premise clauses of Proposition 5.4 over `n` attributes:
///
///   ∧_{X'->Y' ∈ C} ( (∨_{a∈X'} ¬u_a) ∨ ∨_j aux_j ),  aux_j → ∧_{y∈Y'_j} u_y
///
/// Requires every premise inside the universe (`CheckInUniverse`): an
/// attribute a ≥ n would be numbered a + 1 and alias an auxiliary.
PremiseTranslation TranslatePremises(int n, const ConstraintSet& premises);

/// Decides `premises |= goal` through the propositional translation
/// (Proposition 5.4) refuted with DPLL: a counterexample `U` exists iff the
/// CNF
///
///   ∧_{a∈X} u_a  ∧  ∧_{Y∈Y} (∨_{y∈Y} ¬u_y)
///   ∧_{X'->Y' ∈ C} ( (∨_{a∈X'} ¬u_a) ∨ ∨_j aux_j ),  aux_j → ∧_{y∈Y'_j} u_y
///
/// is satisfiable. One variable per attribute plus one auxiliary variable
/// per premise member; no universe-size restriction beyond 64 attributes.
/// `stats`, when non-null, receives the solver counters. The reference
/// procedure of the Prop. 5.4/5.5 reproduction and the tests' oracle; the
/// engine's `sat` procedure searches premise masks instead.
Result<ImplicationOutcome> CheckImplicationSat(int n, const ConstraintSet& premises,
                                               const DifferentialConstraint& goal,
                                               prop::SolverStats* stats = nullptr);

/// True iff every premise and the goal have a single right-hand member —
/// the subclass the paper's conclusion identifies with functional
/// dependencies, decidable in polynomial time.
bool FdSubclassApplicable(const ConstraintSet& premises, const DifferentialConstraint& goal);

/// The premise side of the FD-subclass closure check, reusable across
/// goals: the premises reread as functional dependencies `lhs -> rhs`.
/// Built once per `ConstraintSet` (e.g. inside a `PreparedPremises`
/// artifact) so repeated closure queries skip the applicability scan.
struct FdPremiseIndex {
  /// True iff every premise has a single right-hand member. The goal-side
  /// half of `FdSubclassApplicable` (singleton goal RHS) is per-query.
  bool eligible = false;
  /// The premises as (determinant, dependent) attribute-set pairs, in
  /// premise order; meaningful only when `eligible`.
  std::vector<std::pair<ItemSet, ItemSet>> fds;
};

/// Builds the FD view of `premises`; `eligible` is false (and `fds` empty)
/// when some premise has a non-singleton right-hand family.
FdPremiseIndex BuildFdPremiseIndex(const PremiseMasks& premises);

/// The attribute-set closure of `x` under an eligible index (Armstrong),
/// in O(|C|^2) set operations.
ItemSet FdClosure(const FdPremiseIndex& index, ItemSet x);

/// Decides the FD subclass by attribute-set closure (Armstrong), in
/// O(|C|^2) set operations. Requires `FdSubclassApplicable`. The
/// counterexample (when not implied) is the closure of the goal's
/// left-hand side.
Result<ImplicationOutcome> CheckImplicationFd(int n, const ConstraintSet& premises,
                                              const DifferentialConstraint& goal);

/// `CheckImplicationFd` with a prebuilt (typically cached) premise index.
/// Requires `index.eligible` and a singleton goal right-hand side.
Result<ImplicationOutcome> CheckImplicationFdIndexed(int n, const FdPremiseIndex& index,
                                                     const DifferentialConstraint& goal);

/// Front door: dispatches to the FD subclass when applicable, otherwise to
/// the SAT-based procedure.
Result<ImplicationOutcome> CheckImplication(int n, const ConstraintSet& premises,
                                            const DifferentialConstraint& goal);

/// The reduction of Proposition 5.5: the constraint set `C_φ` for a DNF
/// formula `φ`, such that `φ` is a tautology iff `C_φ |= ∅ -> {}`
/// (the goal returned by `TautologyGoal`). A conjunct mentioning a
/// variable both positively and negatively is a contradiction; its
/// translated constraint is trivial and constrains nothing, matching the
/// conjunct's absence from `φ`.
ConstraintSet DnfTautologyReduction(const prop::DnfFormula& f);

/// The goal `∅ -> {}` of the tautology reduction, whose lattice
/// decomposition is all of `2^S`.
DifferentialConstraint TautologyGoal();

}  // namespace diffc

#endif  // DIFFC_CORE_IMPLICATION_H_
