// The builtin L(C)-preserving rewrite rules, derived from the Figure 1/2
// inference-rule schemas (`core/inference.h`) read as simplifications: where
// Figure 1 derives a new constraint from old ones, each rule here removes or
// shrinks constraints that the rest of the set already accounts for, leaving
// L(C) — and hence every implication verdict — exactly unchanged. Soundness
// arguments and the exactness of the change-tick skips live in DESIGN.md
// §14; every rule is property-tested against a materialized L(C) in
// tests/test_rewrite.cc and fuzz/fuzz_rewrite.cc.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {
namespace {

using Premise = PremiseMasks::Premise;

// Σ_{Y ∈ f} |Y| — the member-item count a merge must not increase.
std::size_t FamilyItems(std::span<const Mask> f) {
  std::size_t items = 0;
  for (Mask y : f) items += static_cast<std::size_t>(Popcount(y));
  return items;
}

// Keeps the ⊆-minimal masks of the sorted, duplicate-free range
// [first, last), in order, and returns the new end. A proper subset is
// numerically smaller, so each mask is tested only against the minimal
// masks kept before it — the `SetFamily::Minimized` set, in its order.
Mask* KeepMinimal(Mask* first, Mask* last) {
  Mask* kept = first;
  for (Mask* y = first; y != last; ++y) {
    const Mask m = *y;
    if (std::none_of(first, kept, [m](Mask o) { return IsSubset(o, m); })) *kept++ = m;
  }
  return kept;
}

// Removes the premises whose flag is set, keeping the order of the rest.
void RemoveFlagged(std::vector<Premise>* ps, const std::vector<char>& flags) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ps->size(); ++i) {
    if (flags[i] == 0) (*ps)[kept++] = (*ps)[i];
  }
  ps->resize(kept);
}

// Triviality, read as deletion: some member Y ⊆ X ⟺ L(X, Y) = ∅, so the
// constraint excludes nothing from the union L(C).
class DropTrivialRule : public RewriteRule {
 public:
  const char* name() const override { return "drop-trivial"; }
  std::size_t Apply(RewriteArena* arena) const override {
    PremiseMasks& m = arena->masks();
    return std::erase_if(m.premises, [&](const Premise& p) {
      return arena->Changed(p) && arena->Charge(p.size()) && m.SomeMemberSubsetOf(p, p.lhs);
    });
  }
};

// Member subsumption: L(X, Y) depends on Y only through SomeMemberSubsetOf,
// which is invariant under dropping ⊆-non-minimal members.
class MinimizeRhsRule : public RewriteRule {
 public:
  const char* name() const override { return "minimize-rhs"; }
  std::size_t Apply(RewriteArena* arena) const override {
    PremiseMasks& m = arena->masks();
    std::size_t removed_members = 0;
    for (Premise& p : m.premises) {
      if (!arena->Changed(p)) continue;
      if (!arena->ChargeSquare(p.size())) break;
      Mask* family = m.members.data() + p.begin;
      const auto end = static_cast<std::uint32_t>(
          p.begin + (KeepMinimal(family, family + p.size()) - family));
      if (end == p.end) continue;
      removed_members += p.end - end;
      p.end = end;
      arena->Touch(&p);
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
  std::size_t Apply(RewriteArena* arena) const override {
    PremiseMasks& m = arena->masks();
    std::size_t removed_items = 0;
    for (Premise& p : m.premises) {
      if (!arena->Changed(p)) continue;
      if (!arena->Charge(p.size())) break;
      if (m.SomeMemberSubsetOf(p, p.lhs)) continue;  // drop-trivial's job; keeps members nonempty.
      std::size_t overlap = 0;
      for (Mask y : m.family(p)) overlap += static_cast<std::size_t>(Popcount(y & p.lhs));
      if (overlap == 0) continue;
      Mask* first = m.members.data() + p.begin;
      Mask* last = first + p.size();
      for (Mask* y = first; y != last; ++y) *y &= ~p.lhs;
      std::sort(first, last);
      p.end = static_cast<std::uint32_t>(p.begin + (std::unique(first, last) - first));
      arena->Touch(&p);
      removed_items += overlap;
    }
    return removed_items;
  }
};

// Exact absorption test: L(b) ⊆ L(a), decided pointwise. For U ∈ L(b) we
// have a.lhs ⊆ b.lhs ⊆ U; and if some Y_a ⊆ U were possible, the condition
// plants a member of b inside b.lhs ∪ Y_a ⊆ U, contradicting U ∈ L(b). The
// condition generalizes Figure 1 augmentation (X -> Y absorbs X∪Z -> Y) and
// addition (X -> Y absorbs X -> Y∪{Z}), and covers exact duplicates. The
// caller has checked a.lhs ⊆ b.lhs.
bool FamilyAbsorbs(const PremiseMasks& m, const Premise& a, const Premise& b) {
  for (Mask ya : m.family(a)) {
    if (!m.SomeMemberSubsetOf(b, b.lhs | ya)) return false;
  }
  return true;
}

// Constraint subsumption: drop b when some kept a has L(b) ⊆ L(a) — then
// L(C) loses nothing. Absorption is transitive (it is L-containment on
// nontrivial constraints), so chains collapse onto their kept heads.
class AbsorbSubsumedRule : public RewriteRule {
 public:
  const char* name() const override { return "absorb-subsumed"; }
  std::size_t Apply(RewriteArena* arena) const override {
    const PremiseMasks& m = arena->masks();
    const std::vector<Premise>& ps = m.premises;
    const std::size_t count = ps.size();
    // The changed premises, ascending, are the only absorbers left to test:
    // an unchanged one absorbed no survivor on the last run, and since an
    // edit keeps or enlarges L(b), it absorbs none now (DESIGN.md §14).
    // Their lhs masks lie back to back for the subset scans.
    std::vector<std::uint32_t> changed;
    std::vector<Mask> changed_lhs;
    for (std::size_t i = 0; i < count; ++i) {
      if (!arena->Changed(ps[i])) continue;
      changed.push_back(static_cast<std::uint32_t>(i));
      changed_lhs.push_back(ps[i].lhs);
    }
    std::vector<std::uint32_t> candidates(changed.size());
    std::vector<char> dropped(count, 0);
    std::size_t edits = 0;
    // Descending j keeps the earliest of mutually-absorbing constraints.
    // Premises are sorted by lhs and a subset is never numerically larger,
    // so the absorbers of j lie before the end of its lhs run.
    std::size_t run_end = count;
    std::size_t last = changed.size();
    for (std::size_t j = count; j-- > 0;) {
      const Premise& b = ps[j];
      if (j + 1 < count && ps[j + 1].lhs != b.lhs) {
        run_end = j + 1;
        while (last > 0 && changed[last - 1] >= run_end) --last;
      }
      if (!arena->Charge(last)) break;
      // The absorbers with lhs ⊆ b.lhs, ascending, gathered without a
      // branch per premise.
      std::size_t k = 0;
      for (std::size_t c = 0; c < last; ++c) {
        candidates[k] = changed[c];
        k += IsSubset(changed_lhs[c], b.lhs) ? 1 : 0;
      }
      for (std::size_t c = 0; c < k; ++c) {
        const std::uint32_t i = candidates[c];
        if (i == j || dropped[i] != 0) continue;
        if (!arena->Charge(ps[i].size() * b.size())) break;
        if (FamilyAbsorbs(m, ps[i], b)) {
          dropped[j] = 1;
          ++edits;
          break;
        }
      }
      if (arena->exhausted()) break;
    }
    if (edits > 0) RemoveFlagged(&arena->masks().premises, dropped);
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
  std::size_t Apply(RewriteArena* arena) const override {
    // Equal-lhs constraints are adjacent, and each run is scanned in
    // family order.
    arena->SortRuns();
    PremiseMasks& m = arena->masks();
    std::vector<Premise>& ps = m.premises;
    std::vector<char> erased(ps.size(), 0);
    std::size_t merges = 0;
    for (std::size_t i = 0; i + 1 < ps.size() && !arena->exhausted();) {
      bool merged_here = false;
      for (std::size_t j = i + 1; erased[i] == 0 && j < ps.size() && ps[j].lhs == ps[i].lhs;
           ++j) {
        if (erased[j] != 0) continue;
        if (!arena->Charge(1)) break;
        // Both unchanged: the gate rejected this pair on the last run, and
        // it reads only the two families.
        if (!arena->Changed(ps[i]) && !arena->Changed(ps[j])) continue;
        if (!Merge(arena, &ps[i], ps[j])) continue;
        erased[j] = 1;
        ++merges;
        merged_here = true;
        break;  // Re-scan the group against the merged rhs.
      }
      if (!merged_here) ++i;
    }
    if (merges > 0) RemoveFlagged(&ps, erased);
    return merges;
  }

 private:
  // Replaces a's family by the minimized cross family of a and b when the
  // gate passes; the budget is charged for the cross product and its
  // minimization before either is built.
  static bool Merge(RewriteArena* arena, Premise* a, const Premise& b) {
    const std::uint64_t pairs = static_cast<std::uint64_t>(a->size()) * b.size();
    if (!arena->ChargeSquare(pairs)) return false;
    PremiseMasks& m = arena->masks();
    std::vector<Mask>& cross = arena->scratch();
    cross.clear();
    for (Mask y : m.family(*a)) {
      for (Mask z : m.family(b)) cross.push_back(y | z);
    }
    std::sort(cross.begin(), cross.end());
    cross.erase(std::unique(cross.begin(), cross.end()), cross.end());
    cross.resize(static_cast<std::size_t>(
        KeepMinimal(cross.data(), cross.data() + cross.size()) - cross.data()));
    if (cross.size() > a->size() + b.size() ||
        FamilyItems(cross) > FamilyItems(m.family(*a)) + FamilyItems(m.family(b))) {
      return false;  // Would grow the artifact; leave the pair split.
    }
    if (cross.size() > a->size()) {
      a->begin = static_cast<std::uint32_t>(m.members.size());
      m.members.insert(m.members.end(), cross.begin(), cross.end());
    } else {
      std::copy(cross.begin(), cross.end(), m.members.begin() + a->begin);
    }
    a->end = static_cast<std::uint32_t>(a->begin + cross.size());
    arena->Touch(a);
    return true;
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
