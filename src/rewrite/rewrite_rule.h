#ifndef DIFFC_REWRITE_REWRITE_RULE_H_
#define DIFFC_REWRITE_REWRITE_RULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "core/premise_masks.h"

namespace diffc {
namespace rewrite {

/// The simplifier's cost of a constraint set: (constraint count, total
/// witness-family members, total member sizes). Every rewrite rule edit
/// removes a constraint or a member, so `constraints + members` falls on
/// each edit (DESIGN.md §14); `member_items` is reported only.
struct RewriteCost {
  std::size_t constraints = 0;
  /// Σ_c |rhs(c)| — total witness-family members across the set.
  std::size_t members = 0;
  /// Σ_c Σ_{Y ∈ rhs(c)} |Y| — total member sizes.
  std::size_t member_items = 0;

  /// The cost of `c`.
  static RewriteCost Of(const PremiseMasks& c);

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

/// The step budget of one `Simplify` call: a bound on the rewriter's work,
/// so REGISTER, which has no deadline, cannot be made to run for hours
/// (DESIGN.md §14). Rules charge it before the work they would do.
inline constexpr std::uint64_t kSimplifyStepBudget = std::uint64_t{1} << 24;

/// A premise arena under rewriting: the `PremiseMasks` the rules edit in
/// place, kept sorted by lhs, plus the step budget. `Charge` spends the
/// budget; once spent, every rule stops and the driver returns the set as
/// rewritten so far.
class RewriteArena {
 public:
  /// Takes `*masks` for rewriting. The rules need the premises sorted by
  /// lhs (`Sort`).
  explicit RewriteArena(PremiseMasks* masks) : masks_(masks) {}

  PremiseMasks& masks() { return *masks_; }

  /// Spends `steps` of the budget; false (and the budget is spent for
  /// good) when fewer remain.
  bool Charge(std::uint64_t steps) {
    if (exhausted_ || steps > remaining_) {
      exhausted_ = true;
      return false;
    }
    remaining_ -= steps;
    return true;
  }
  /// `Charge(k * k)`, without overflow.
  bool ChargeSquare(std::uint64_t k);

  /// True once a charge was refused.
  bool exhausted() const { return exhausted_; }
  /// Steps charged so far.
  std::uint64_t steps() const { return kSimplifyStepBudget - remaining_; }

  /// Sorts the premises by lhs, then by family, lexicographically.
  void Sort();
  /// `Sort` for an arena sorted by lhs: sorts each run of equal lhs by
  /// family. Rules never edit a lhs, so these runs are all that a
  /// minimized family can put out of order after `Sort`.
  void SortRuns();

 private:
  PremiseMasks* masks_;
  std::uint64_t remaining_ = kSimplifyStepBudget;
  bool exhausted_ = false;
};

/// One L(C)-preserving rewrite over a premise arena, derived from the
/// Figure 1/2 inference-rule schemas (`core/inference.h`). Implementations
/// must uphold three contracts, property-tested in tests/test_rewrite.cc:
///
///   - soundness: L(C) = ∪_c L(lhs(c), rhs(c)) is preserved exactly, so
///     every implication verdict against the rewritten set equals the
///     verdict against the original;
///   - progress: every edit removes a constraint or a member;
///   - determinism: equal inputs produce equal outputs.
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;

  /// Stable kebab-case rule name — the `rule` label of
  /// `diffc_rewrite_applied_total` and the DESIGN.md §14 catalog key.
  virtual const char* name() const = 0;

  /// Exhaustively applies the rule to the arena, returning the number of
  /// edits performed (0 = no match anywhere). The arena stays sorted by
  /// lhs. Stops early, with every edit so far applied, once a `Charge`
  /// fails.
  virtual std::size_t Apply(RewriteArena* arena) const = 0;
};

/// One probed application: the edit count, cost before/after, and the
/// rewritten set, on a fresh arena. The rule tester uses this to check
/// progress without mutating its input, and the tests and `fuzz_rewrite`
/// to check that no rule edits a canonical set. `n` is the universe size
/// of `c`; no rule reads it.
struct RuleProbe {
  std::size_t edits = 0;
  RewriteCost before;
  RewriteCost after;
  ConstraintSet result;
};
RuleProbe Probe(const RewriteRule& rule, int n, const ConstraintSet& c);

/// The builtin rules (rules.cc), in driver application order:
/// drop-trivial, minimize-rhs, absorb-subsumed.
const std::vector<const RewriteRule*>& BuiltinRules();

/// The builtin rule named `name`, or nullptr.
const RewriteRule* FindRule(const std::string& name);

}  // namespace rewrite
}  // namespace diffc

#endif  // DIFFC_REWRITE_REWRITE_RULE_H_
