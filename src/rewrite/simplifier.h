#ifndef DIFFC_REWRITE_SIMPLIFIER_H_
#define DIFFC_REWRITE_SIMPLIFIER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {

/// Carries no setting: every simplification runs the one `BuiltinRules()`
/// list. The type stays only because the public `Simplify` boundary takes
/// one.
struct SimplifyOptions {};

/// Per-invocation counters, kept in `PrepareStats` by the prepare stage and
/// flushed into the `diffc_rewrite_*` metrics.
struct SimplifyStats {
  RewriteCost before;
  RewriteCost after;
  /// Fixpoint passes run, including the final confirming (edit-free) pass.
  std::size_t passes = 0;
  /// Total rule edits across all passes.
  std::size_t applied_total = 0;
  /// True iff a pass completed with zero edits within the pass cap and
  /// the step budget.
  bool reached_fixpoint = false;
  /// Steps charged against `kSimplifyStepBudget`.
  std::uint64_t steps = 0;
  /// (rule name, edit count) for every builtin rule, in application order —
  /// the per-rule breakdown behind `diffc_rewrite_applied_total`.
  std::vector<std::pair<std::string, std::size_t>> applied_by_rule;

  /// The edits of the rule named `rule`; 0 for a name no rule has.
  std::size_t Applied(std::string_view rule) const;
};

/// The automatic pass cap: 2 + the constraints and members of `before`.
/// Every pass short of fixpoint performs at least one edit and every edit
/// removes a constraint or a member (DESIGN.md §14), so a fixpoint is
/// always confirmed strictly inside this bound. The driver stops at the cap
/// even if a (contract-violating) rule failed to make progress, so
/// Simplify always terminates.
std::size_t SimplifyPassBound(const RewriteCost& before);

/// Runs the builtin rules over `*premises` in place to fixpoint and leaves
/// the simplified set sorted and compacted. L(C) — and therefore every
/// implication verdict — is preserved exactly. Idempotent: re-running on
/// the result applies nothing. When the step budget runs out first, the
/// driver stops with `reached_fixpoint` false and leaves the set as
/// rewritten so far, which preserves L(C) all the same. `stats`, when
/// non-null, is overwritten.
void SimplifyInPlace(PremiseMasks* premises, SimplifyStats* stats = nullptr);

/// `SimplifyInPlace` over a `ConstraintSet`: flattens `c`, simplifies it
/// and returns the result as a `ConstraintSet`. No rule reads `n`, and
/// `options` holds nothing to read.
ConstraintSet Simplify(int n, ConstraintSet c, const SimplifyOptions& options,
                       SimplifyStats* stats = nullptr);

}  // namespace rewrite
}  // namespace diffc

#endif  // DIFFC_REWRITE_SIMPLIFIER_H_
