#ifndef DIFFC_CORE_INFERENCE_H_
#define DIFFC_CORE_INFERENCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "util/status.h"

namespace diffc {

/// The inference rules of Figure 1, plus a pseudo-rule for citing a given
/// constraint.
enum class InferenceRule {
  kGiven,         ///< cite a constraint of `C`
  kTriviality,    ///< ⊢ X -> Y when some Y ∈ Y has Y ⊆ X
  kAugmentation,  ///< X -> Y ⊢ X∪Z -> Y
  kAddition,      ///< X -> Y ⊢ X -> Y∪{Z}
  kElimination,   ///< X -> Y∪{Z}, X∪Z -> Y ⊢ X -> Y
};

/// Name of a rule ("given", "triviality", ...).
const char* InferenceRuleName(InferenceRule rule);

/// One application of a rule inside a derivation.
struct ProofStep {
  InferenceRule rule;
  /// Indices of earlier steps used as premises (empty for kGiven and
  /// kTriviality).
  std::vector<int> premises;
  /// For kGiven: index into the given constraint set.
  int given_index = -1;
  /// The constraint this step derives.
  DifferentialConstraint conclusion;
};

/// A derivation `C ⊢ X -> Y` (Definition 4.1): a sequence of rule
/// applications whose last step concludes the derived constraint.
/// Derivations are data; `ValidateDerivation` checks every step against
/// the rule schemas, so machine-generated proofs are independently
/// verifiable.
class Derivation {
 public:
  /// The steps in order.
  const std::vector<ProofStep>& steps() const { return steps_; }
  /// Number of steps.
  int size() const { return static_cast<int>(steps_.size()); }
  /// The final conclusion. Requires a nonempty derivation.
  const DifferentialConstraint& conclusion() const { return steps_.back().conclusion; }

  /// Appends a step and returns its index.
  int AddStep(ProofStep step) {
    steps_.push_back(std::move(step));
    return static_cast<int>(steps_.size()) - 1;
  }

  /// Pretty-prints the proof, one numbered line per step.
  std::string ToString(const Universe& u) const;

 private:
  std::vector<ProofStep> steps_;
};

/// Rule-schema validation (exposed for tests and the Figure 1 benchmark).
bool IsValidTriviality(const DifferentialConstraint& conclusion);
bool IsValidAugmentation(const DifferentialConstraint& premise,
                         const DifferentialConstraint& conclusion);
bool IsValidAddition(const DifferentialConstraint& premise,
                     const DifferentialConstraint& conclusion);
bool IsValidElimination(const DifferentialConstraint& p1, const DifferentialConstraint& p2,
                        const DifferentialConstraint& conclusion);

/// Checks that every step of `d` is a correct application of its rule over
/// an `n`-attribute universe, with kGiven steps citing `givens`. Returns
/// the first violation found.
Status ValidateDerivation(int n, const ConstraintSet& givens, const Derivation& d);

/// Limits for the proof generator.
struct DeriveOptions {
  /// Upper bound on emitted steps (ResourceExhausted beyond).
  std::size_t max_steps = 1'000'000;
};

/// Decides `givens |= goal` by a counterexample search (Theorem 3.5) and,
/// when the search is refuted, returns the refuted search tree as a
/// derivation in the four rules of Figure 1 (docs/PROOFS.md). A node
/// `(A, B)` claims `A -> Y ∪ {{b} | b ∈ B}`, which holds exactly when the
/// interval `[A, S∖B]` holds no counterexample. A node closes by
/// triviality (a goal member inside `A`) or by a given `X' -> Y'` with
/// `X' ⊆ A` whose every member meets `B`. Otherwise it splits on one open
/// attribute `b`, and one elimination with `Z := {b}` joins the children
/// `(A ∪ {b}, B)` and `(A, B ∪ {b})`. The root `(X, B)`, with `B` the
/// attributes of singleton goal members outside `X`, claims the goal.
/// Each split fixes an attribute, so at most 2^(f+1) − 1 nodes are
/// visited, f = n − |X|, and every emitted step is cited by a later one.
///
/// Returns NotFound (with no derivation) exactly when `givens` does not
/// imply `goal`, whatever `opts.max_steps` is; ResourceExhausted when the
/// goal is implied but its proof would exceed `opts.max_steps`; and
/// InvalidArgument when `n` is outside [0, 64] or the goal or a given
/// leaves the `n`-attribute universe. An OK result passes
/// `ValidateDerivation` and its last step concludes exactly `goal`.
Result<Derivation> DeriveImplied(int n, const ConstraintSet& givens,
                                 const DifferentialConstraint& goal,
                                 const DeriveOptions& opts = {});

}  // namespace diffc

#endif  // DIFFC_CORE_INFERENCE_H_
