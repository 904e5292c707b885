#ifndef DIFFC_REWRITE_REWRITE_RULE_H_
#define DIFFC_REWRITE_REWRITE_RULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/constraint.h"

namespace diffc {
namespace rewrite {

/// The simplifier's cost of a constraint set: the lexicographic triple
/// (constraint count, total witness-family members, total member sizes).
/// Every rewrite rule strictly decreases this triple on each edit, which is
/// the termination argument of the fixpoint driver (DESIGN.md §14).
struct RewriteCost {
  std::size_t constraints = 0;
  /// Σ_c |rhs(c)| — total witness-family members across the set.
  std::size_t members = 0;
  /// Σ_c Σ_{Y ∈ rhs(c)} |Y| — total member sizes.
  std::size_t member_items = 0;

  /// The cost of `c`.
  static RewriteCost Of(const ConstraintSet& c);

  /// Scalar potential 65·(constraints + members) + member_items. Because a
  /// member never holds more than 64 items, every rule edit decreases the
  /// potential by at least 1 (DESIGN.md §14), so the initial potential
  /// bounds the total number of edits — and hence fixpoint passes.
  std::uint64_t Potential() const {
    return 65 * (static_cast<std::uint64_t>(constraints) + members) + member_items;
  }

  friend bool operator==(const RewriteCost& a, const RewriteCost& b) {
    return a.constraints == b.constraints && a.members == b.members &&
           a.member_items == b.member_items;
  }
  friend bool operator!=(const RewriteCost& a, const RewriteCost& b) { return !(a == b); }
  /// Lexicographic order: fewer constraints first, then members, then items.
  friend bool operator<(const RewriteCost& a, const RewriteCost& b) {
    if (a.constraints != b.constraints) return a.constraints < b.constraints;
    if (a.members != b.members) return a.members < b.members;
    return a.member_items < b.member_items;
  }
};

/// One L(C)-preserving rewrite over a constraint set, derived from the
/// Figure 1/2 inference-rule schemas (`core/inference.h`). Implementations
/// must uphold three contracts, property-tested in tests/test_rewrite.cc:
///
///   - soundness: L(C) = ∪_c L(lhs(c), rhs(c)) is preserved exactly, so
///     every implication verdict against the rewritten set equals the
///     verdict against the original;
///   - progress: every edit strictly decreases `RewriteCost` (and so the
///     scalar potential), which gives the driver its termination bound;
///   - determinism: equal inputs produce equal outputs.
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;

  /// Stable kebab-case rule name — the `rule` label of
  /// `diffc_rewrite_applied_total` and the DESIGN.md §14 catalog key.
  virtual const char* name() const = 0;

  /// Exhaustively applies the rule to `*c` over an `n`-attribute universe,
  /// returning the number of edits performed (0 = no match anywhere).
  virtual std::size_t Apply(int n, ConstraintSet* c) const = 0;

  /// The lowest `SimplifyOptions::level` that runs this rule: 1 for the
  /// structural rules (drop/minimize/absorb), 2 for the rewriting ones
  /// (narrow/merge).
  virtual int min_level() const { return 1; }

  /// True iff the rule would edit `c` (applies to a copy).
  bool Matches(int n, const ConstraintSet& c) const;
};

/// One probed application: the edit count, cost before/after (the cost
/// delta of ISSUE terminology), and the rewritten set. The rule-tester and
/// fuzz harness use this to check progress without mutating their input.
struct RuleProbe {
  std::size_t edits = 0;
  RewriteCost before;
  RewriteCost after;
  ConstraintSet result;
};
RuleProbe Probe(const RewriteRule& rule, int n, const ConstraintSet& c);

/// The builtin rules (rules.cc), in driver application order:
/// drop-trivial, minimize-rhs, narrow-members, absorb-subsumed,
/// merge-same-lhs.
const std::vector<const RewriteRule*>& BuiltinRules();

/// The builtin rule named `name`, or nullptr.
const RewriteRule* FindRule(const std::string& name);

}  // namespace rewrite
}  // namespace diffc

#endif  // DIFFC_REWRITE_REWRITE_RULE_H_
