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
  /// Passes run: always 1, since one pass of the rules is their fixpoint
  /// (DESIGN.md §14). E10 reports it.
  std::size_t passes = 0;
  /// Total rule edits.
  std::size_t applied_total = 0;
  /// True iff the pass finished within the step budget.
  bool reached_fixpoint = false;
  /// Steps charged against `kSimplifyStepBudget`.
  std::uint64_t steps = 0;
  /// (rule name, edit count) for every builtin rule, in application order —
  /// the per-rule breakdown behind `diffc_rewrite_applied_total`.
  std::vector<std::pair<std::string, std::size_t>> applied_by_rule;

  /// The edits of the rule named `rule`; 0 for a name no rule has.
  std::size_t Applied(std::string_view rule) const;
};

/// Sorts `*premises`, runs the builtin rules over them once in list order,
/// which reaches their fixpoint (DESIGN.md §14), and leaves the simplified
/// set sorted and compacted. L(C) — and therefore every implication
/// verdict — is preserved exactly. Idempotent: re-running on the result
/// applies nothing. When the step budget runs out first, the driver stops
/// with `reached_fixpoint` false and leaves the set as rewritten so far,
/// which preserves L(C) all the same. `stats`, when non-null, is
/// overwritten.
void SimplifyInPlace(PremiseMasks* premises, SimplifyStats* stats = nullptr);

/// `SimplifyInPlace` over a `ConstraintSet`: flattens `c`, simplifies it
/// and returns the result as a `ConstraintSet`. No rule reads `n`, and
/// `options` holds nothing to read.
ConstraintSet Simplify(int n, ConstraintSet c, const SimplifyOptions& options,
                       SimplifyStats* stats = nullptr);

}  // namespace rewrite
}  // namespace diffc

#endif  // DIFFC_REWRITE_SIMPLIFIER_H_
