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
  static RewriteCost Of(const PremiseMasks& c);

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

/// The step budget of one `Simplify` call: a bound on the rewriter's work,
/// so REGISTER, which has no deadline, cannot be made to run for hours
/// (DESIGN.md §14). Rules charge it before the work they would do.
inline constexpr std::uint64_t kSimplifyStepBudget = std::uint64_t{1} << 24;

/// A premise arena under rewriting: the `PremiseMasks` the rules edit in
/// place, kept sorted by lhs, plus the driver's bookkeeping.
///
///   - Change ticks. Each premise carries the tick of its last change, and
///     each rule run starts at a new tick. A premise is *changed* for a run
///     when its tick is at or after the tick at which the same rule last
///     started, so a rule can skip what it already examined (§14).
///   - The step budget. `Charge` spends it; once spent, every rule stops
///     and the driver returns the set as rewritten so far.
class RewriteArena {
 public:
  /// Takes `*masks` for rewriting; every premise starts out changed. The
  /// rules need the premises sorted by lhs (`Sort`).
  explicit RewriteArena(PremiseMasks* masks);

  PremiseMasks& masks() { return *masks_; }

  /// Starts a rule run. `*last_start` is the tick at which the rule last
  /// started (0: never); it receives this run's tick. Charges one step per
  /// premise, the run's scan.
  void BeginRule(std::uint64_t* last_start);

  /// True iff `p` changed since the running rule last started.
  bool Changed(const PremiseMasks::Premise& p) const { return p.tick >= since_; }

  /// Records that the running rule changed `p`.
  void Touch(PremiseMasks::Premise* p) {
    p->tick = now_;
    runs_sorted_ = false;
  }

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
  /// family. Rules never edit a lhs, so these runs are all that can fall
  /// out of order after the first `Sort`, and only when a family changed
  /// since the last sort; otherwise this returns at once.
  void SortRuns();

  /// Scratch space for the rules.
  std::vector<Mask>& scratch() { return scratch_; }

 private:
  PremiseMasks* masks_;
  std::uint64_t tick_ = 0;
  std::uint64_t since_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t remaining_ = kSimplifyStepBudget;
  bool exhausted_ = false;
  // False until the first sort, and after a family changes.
  bool runs_sorted_ = false;
  std::vector<Mask> scratch_;
};

/// One L(C)-preserving rewrite over a premise arena, derived from the
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

  /// Exhaustively applies the rule to the arena between `BeginRule` calls,
  /// returning the number of edits performed (0 = no match anywhere). The
  /// arena stays sorted by lhs; a premise the rule changes is `Touch`ed;
  /// premises not `Changed` are skipped where §14 shows the outcome is
  /// known. Stops early, with every edit so far applied, once a `Charge`
  /// fails.
  virtual std::size_t Apply(RewriteArena* arena) const = 0;

  /// The lowest `SimplifyOptions::level` that runs this rule: 1 for the
  /// structural rules (drop/minimize/absorb), 2 for the rewriting ones
  /// (narrow/merge).
  virtual int min_level() const { return 1; }
};

/// One probed application: the edit count, cost before/after, and the
/// rewritten set. It runs on a fresh arena, so every premise counts as
/// changed and nothing is skipped. The rule tester uses this to check
/// progress without mutating its input. `n` is the universe size of `c`;
/// no rule reads it.
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
