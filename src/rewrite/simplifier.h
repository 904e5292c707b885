#ifndef DIFFC_REWRITE_SIMPLIFIER_H_
#define DIFFC_REWRITE_SIMPLIFIER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {

/// Driver configuration. Level selects which builtin rules run:
///
///   1 — structural rules only (`drop-trivial`, `minimize-rhs`,
///       `absorb-subsumed`): a strict superset of the PR 5 inline
///       canonicalization (drop + minimize + dedupe);
///   2 — adds the rewriting rules (`narrow-members`, `merge-same-lhs`).
///
/// Premise compilation (`PreparedPremises::Build`) always runs the
/// defaults; level 1 exists for the rewrite library's own tests and fuzzer.
struct SimplifyOptions {
  int level = 2;
  /// 0 derives the pass cap from the input cost (`SimplifyPassBound`); a
  /// positive value overrides it. The driver stops at the cap even if a
  /// (contract-violating) rule failed to make progress, so Simplify always
  /// terminates.
  std::size_t max_passes = 0;
};

/// Per-invocation counters, mirrored into `PrepareStats` by the prepare
/// stage and aggregated process-wide for /statusz.
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
  /// (rule name, edit count) for every rule the level ran, in application
  /// order — the per-rule breakdown behind `diffc_rewrite_applied_total`.
  std::vector<std::pair<std::string, std::size_t>> applied_by_rule;
};

/// The automatic pass cap: 2 + the scalar potential of `before`. Every
/// pass short of fixpoint performs at least one edit and every edit
/// decreases the potential by at least 1 (DESIGN.md §14), so a fixpoint is
/// always confirmed strictly inside this bound.
std::size_t SimplifyPassBound(const RewriteCost& before);

/// Runs the builtin rules at `options.level` over `*premises` in place to
/// fixpoint and leaves the simplified set sorted and compacted. L(C) — and
/// therefore every implication verdict — is preserved exactly. Idempotent:
/// re-running on the result applies nothing. When the step budget runs out
/// first, the driver stops with `reached_fixpoint` false and leaves the set
/// as rewritten so far, which preserves L(C) all the same. `stats`, when
/// non-null, is overwritten.
void SimplifyInPlace(PremiseMasks* premises, const SimplifyOptions& options,
                     SimplifyStats* stats = nullptr);

/// `SimplifyInPlace` over a `ConstraintSet`: flattens `c`, simplifies it
/// and returns the result as a `ConstraintSet`. No rule reads `n`.
ConstraintSet Simplify(int n, ConstraintSet c, const SimplifyOptions& options,
                       SimplifyStats* stats = nullptr);

/// Process-wide simplifier totals since start, surfaced on /statusz.
struct RewriteTotals {
  std::uint64_t simplify_calls = 0;
  std::uint64_t passes = 0;
  std::uint64_t applied = 0;
  std::uint64_t constraints_removed = 0;
};
RewriteTotals GlobalRewriteTotals();

}  // namespace rewrite
}  // namespace diffc

#endif  // DIFFC_REWRITE_SIMPLIFIER_H_
