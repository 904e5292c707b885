// The builtin L(C)-preserving rewrite rules, derived from the Figure 1/2
// inference-rule schemas (`core/inference.h`) read as simplifications: where
// Figure 1 derives a new constraint from old ones, each rule here removes or
// shrinks constraints that the rest of the set already accounts for, leaving
// L(C) — and hence every implication verdict — exactly unchanged. Soundness
// arguments live in DESIGN.md §14; every rule is property-tested against a
// materialized L(C) in tests/test_rewrite.cc and fuzz/fuzz_rewrite.cc.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {
namespace {

// Σ_{Y ∈ f} |Y| — the member-item count a merge must not increase.
std::size_t FamilyItems(const SetFamily& f) {
  std::size_t items = 0;
  for (const ItemSet& y : f.members()) items += static_cast<std::size_t>(y.size());
  return items;
}

// Triviality, read as deletion: `IsTrivial()` ⟺ some member Y ⊆ X ⟺
// L(X, Y) = ∅, so the constraint excludes nothing from the union L(C).
class DropTrivialRule : public RewriteRule {
 public:
  const char* name() const override { return "drop-trivial"; }
  std::size_t Apply(int n, ConstraintSet* c) const override {
    (void)n;  // Triviality is universe-independent.
    const std::size_t before = c->size();
    c->erase(std::remove_if(
                 c->begin(), c->end(),
                 [](const DifferentialConstraint& dc) { return dc.IsTrivial(); }),
             c->end());
    return before - c->size();
  }
};

// Member subsumption: L(X, Y) depends on Y only through SomeMemberSubsetOf,
// which is invariant under dropping ⊆-non-minimal members
// (`SetFamily::Minimized`).
class MinimizeRhsRule : public RewriteRule {
 public:
  const char* name() const override { return "minimize-rhs"; }
  std::size_t Apply(int n, ConstraintSet* c) const override {
    (void)n;  // Minimization is universe-independent.
    std::size_t removed_members = 0;
    for (DifferentialConstraint& dc : *c) {
      SetFamily minimized = dc.rhs().Minimized();
      if (minimized.size() == dc.rhs().size()) continue;
      removed_members += static_cast<std::size_t>(dc.rhs().size() - minimized.size());
      dc = DifferentialConstraint(dc.lhs(), std::move(minimized));
    }
    return removed_members;
  }
};

// Lhs-member intersection narrowing: for U ⊇ X, Y ⊆ U ⟺ Y∖X ⊆ U, so
// replacing each member Y by Y∖X preserves L(X, Y) pointwise. Nontrivial
// constraints (no Y ⊆ X) never gain an empty member.
class NarrowMembersRule : public RewriteRule {
 public:
  const char* name() const override { return "narrow-members"; }
  int min_level() const override { return 2; }
  std::size_t Apply(int n, ConstraintSet* c) const override {
    (void)n;  // Narrowing is pointwise on (lhs, member) pairs; no universe use.
    std::size_t removed_items = 0;
    for (DifferentialConstraint& dc : *c) {
      if (dc.IsTrivial()) continue;  // drop-trivial's job; keeps members nonempty.
      const ItemSet x = dc.lhs();
      std::size_t overlap = 0;
      for (const ItemSet& y : dc.rhs().members()) {
        overlap += static_cast<std::size_t>(y.Intersect(x).size());
      }
      if (overlap == 0) continue;
      std::vector<ItemSet> narrowed;
      narrowed.reserve(static_cast<std::size_t>(dc.rhs().size()));
      for (const ItemSet& y : dc.rhs().members()) narrowed.push_back(y.Minus(x));
      dc = DifferentialConstraint(x, SetFamily(std::move(narrowed)));
      removed_items += overlap;
    }
    return removed_items;
  }
};

// Exact absorption test: L(b) ⊆ L(a), decided pointwise. For U ∈ L(b) we
// have a.lhs ⊆ b.lhs ⊆ U; and if some Y_a ⊆ U were possible, the condition
// plants a member of b inside b.lhs ∪ Y_a ⊆ U, contradicting U ∈ L(b). The
// condition generalizes Figure 1 augmentation (X -> Y absorbs X∪Z -> Y) and
// addition (X -> Y absorbs X -> Y∪{Z}), and covers exact duplicates.
bool Absorbs(const DifferentialConstraint& a, const DifferentialConstraint& b) {
  if (!a.lhs().IsSubsetOf(b.lhs())) return false;
  for (const ItemSet& ya : a.rhs().members()) {
    if (!b.rhs().SomeMemberSubsetOf(b.lhs().Union(ya))) return false;
  }
  return true;
}

// Constraint subsumption: drop b when some kept a has L(b) ⊆ L(a) — then
// L(C) loses nothing. Absorption is transitive (it is L-containment on
// nontrivial constraints), so chains collapse onto their kept heads.
class AbsorbSubsumedRule : public RewriteRule {
 public:
  const char* name() const override { return "absorb-subsumed"; }
  std::size_t Apply(int n, ConstraintSet* c) const override {
    (void)n;  // Absorption compares constraints only; no universe use.
    const std::size_t count = c->size();
    std::vector<char> dropped(count, 0);
    std::size_t edits = 0;
    // Descending j keeps the earliest of mutually-absorbing constraints.
    for (std::size_t j = count; j-- > 0;) {
      for (std::size_t i = 0; i < count; ++i) {
        if (i == j || dropped[i] != 0) continue;
        if (!Absorbs((*c)[i], (*c)[j])) continue;
        dropped[j] = 1;
        ++edits;
        break;
      }
    }
    if (edits == 0) return 0;
    ConstraintSet kept;
    kept.reserve(count - edits);
    for (std::size_t i = 0; i < count; ++i) {
      if (dropped[i] == 0) kept.push_back(std::move((*c)[i]));
    }
    *c = std::move(kept);
    return edits;
  }
};

// Union rule (Figure 2), run in reverse as a merge: for equal left-hand
// sides, L(X, Y) ∪ L(X, Z) = L(X, {Y∪Z | Y ∈ Y, Z ∈ Z}) exactly — U ⊉ any
// Y and U ⊉ any Z fails iff some Y∪Z ⊆ U. Gated so the minimized cross
// family never has more members or items than the pair it replaces, which
// keeps every edit cost-decreasing.
class MergeSameLhsRule : public RewriteRule {
 public:
  const char* name() const override { return "merge-same-lhs"; }
  int min_level() const override { return 2; }
  std::size_t Apply(int n, ConstraintSet* c) const override {
    (void)n;  // Merging unions members; no universe use.
    // Equal-lhs constraints are adjacent once sorted (operator< orders by
    // lhs first); the driver keeps the set sorted between rules.
    std::sort(c->begin(), c->end());
    std::size_t merges = 0;
    for (std::size_t i = 0; i + 1 < c->size();) {
      bool merged_here = false;
      for (std::size_t j = i + 1; j < c->size() && (*c)[j].lhs() == (*c)[i].lhs(); ++j) {
        const SetFamily& fy = (*c)[i].rhs();
        const SetFamily& fz = (*c)[j].rhs();
        std::vector<ItemSet> cross;
        cross.reserve(static_cast<std::size_t>(fy.size()) *
                      static_cast<std::size_t>(fz.size()));
        for (const ItemSet& y : fy.members()) {
          for (const ItemSet& z : fz.members()) cross.push_back(y.Union(z));
        }
        SetFamily merged = SetFamily(std::move(cross)).Minimized();
        if (merged.size() > fy.size() + fz.size() ||
            FamilyItems(merged) > FamilyItems(fy) + FamilyItems(fz)) {
          continue;  // Would grow the artifact; leave the pair split.
        }
        (*c)[i] = DifferentialConstraint((*c)[i].lhs(), std::move(merged));
        c->erase(c->begin() + static_cast<std::ptrdiff_t>(j));
        ++merges;
        merged_here = true;
        break;  // Re-scan the group against the merged rhs.
      }
      if (!merged_here) ++i;
    }
    return merges;
  }
};

}  // namespace

const std::vector<const RewriteRule*>& BuiltinRules() {
  static const DropTrivialRule drop_trivial;
  static const MinimizeRhsRule minimize_rhs;
  static const NarrowMembersRule narrow_members;
  static const AbsorbSubsumedRule absorb_subsumed;
  static const MergeSameLhsRule merge_same_lhs;
  static const std::vector<const RewriteRule*> rules = {
      &drop_trivial, &minimize_rhs, &narrow_members, &absorb_subsumed, &merge_same_lhs};
  return rules;
}

const RewriteRule* FindRule(const std::string& name) {
  for (const RewriteRule* rule : BuiltinRules()) {
    if (name == rule->name()) return rule;
  }
  return nullptr;
}

}  // namespace rewrite
}  // namespace diffc
