#include "core/inference.h"

#include <map>
#include <utility>

#include "core/implication.h"
#include "lattice/decomposition.h"

namespace diffc {

const char* InferenceRuleName(InferenceRule rule) {
  switch (rule) {
    case InferenceRule::kGiven:
      return "given";
    case InferenceRule::kTriviality:
      return "triviality";
    case InferenceRule::kAugmentation:
      return "augmentation";
    case InferenceRule::kAddition:
      return "addition";
    case InferenceRule::kElimination:
      return "elimination";
  }
  return "?";
}

std::string Derivation::ToString(const Universe& u) const {
  std::string out;
  for (int i = 0; i < size(); ++i) {
    const ProofStep& s = steps_[i];
    out += '(';
    out += std::to_string(i);
    out += ") ";
    out += s.conclusion.ToString(u);
    out += "  [";
    out += InferenceRuleName(s.rule);
    if (s.rule == InferenceRule::kGiven) {
      out += " #" + std::to_string(s.given_index);
    }
    for (size_t j = 0; j < s.premises.size(); ++j) {
      out += j == 0 ? " of " : ", ";
      out += std::to_string(s.premises[j]);
    }
    out += "]\n";
  }
  return out;
}

bool IsValidTriviality(const DifferentialConstraint& conclusion) {
  return conclusion.IsTrivial();
}

bool IsValidAugmentation(const DifferentialConstraint& premise,
                         const DifferentialConstraint& conclusion) {
  return premise.rhs() == conclusion.rhs() && premise.lhs().IsSubsetOf(conclusion.lhs());
}

bool IsValidAddition(const DifferentialConstraint& premise,
                     const DifferentialConstraint& conclusion) {
  if (premise.lhs() != conclusion.lhs()) return false;
  if (conclusion.rhs().size() - premise.rhs().size() > 1) return false;
  for (const ItemSet& m : premise.rhs().members()) {
    if (!conclusion.rhs().HasMember(m)) return false;
  }
  return true;
}

bool IsValidElimination(const DifferentialConstraint& p1, const DifferentialConstraint& p2,
                        const DifferentialConstraint& conclusion) {
  if (p1.lhs() != conclusion.lhs()) return false;
  if (p2.rhs() != conclusion.rhs()) return false;
  // p1 = X -> Y∪{Z}, p2 = X∪Z -> Y for some Z ∈ p1.rhs.
  for (const ItemSet& z : p1.rhs().members()) {
    if (p1.rhs() == conclusion.rhs().WithMember(z) &&
        p2.lhs() == conclusion.lhs().Union(z)) {
      return true;
    }
  }
  return false;
}

Status ValidateDerivation(int n, const ConstraintSet& givens, const Derivation& d) {
  const Mask full = FullMask(n);
  for (int i = 0; i < d.size(); ++i) {
    const ProofStep& s = d.steps()[i];
    if (!IsSubset(s.conclusion.lhs().bits(), full)) {
      return Status::InvalidArgument("step " + std::to_string(i) +
                                     ": left-hand side outside universe");
    }
    for (const ItemSet& m : s.conclusion.rhs().members()) {
      if (!IsSubset(m.bits(), full)) {
        return Status::InvalidArgument("step " + std::to_string(i) +
                                       ": member outside universe");
      }
    }
    for (int p : s.premises) {
      if (p < 0 || p >= i) {
        return Status::InvalidArgument("step " + std::to_string(i) +
                                       ": premise index out of order");
      }
    }
    auto premise = [&](int j) -> const DifferentialConstraint& {
      return d.steps()[s.premises[j]].conclusion;
    };
    bool valid = false;
    switch (s.rule) {
      case InferenceRule::kGiven:
        valid = s.premises.empty() && s.given_index >= 0 &&
                s.given_index < static_cast<int>(givens.size()) &&
                givens[s.given_index] == s.conclusion;
        break;
      case InferenceRule::kTriviality:
        valid = s.premises.empty() && IsValidTriviality(s.conclusion);
        break;
      case InferenceRule::kAugmentation:
        valid = s.premises.size() == 1 && IsValidAugmentation(premise(0), s.conclusion);
        break;
      case InferenceRule::kAddition:
        valid = s.premises.size() == 1 && IsValidAddition(premise(0), s.conclusion);
        break;
      case InferenceRule::kElimination:
        valid = s.premises.size() == 2 &&
                IsValidElimination(premise(0), premise(1), s.conclusion);
        break;
    }
    if (!valid) {
      return Status::InvalidArgument("step " + std::to_string(i) + ": invalid " +
                                     InferenceRuleName(s.rule) + " application");
    }
  }
  if (d.size() == 0) return Status::InvalidArgument("empty derivation");
  return Status::Ok();
}

Derivation PruneDerivation(const Derivation& d) {
  if (d.size() == 0) return d;
  std::vector<bool> needed(d.size(), false);
  needed[d.size() - 1] = true;
  for (int i = d.size() - 1; i >= 0; --i) {
    if (!needed[i]) continue;
    for (int p : d.steps()[i].premises) needed[p] = true;
  }
  std::vector<int> new_index(d.size(), -1);
  Derivation pruned;
  for (int i = 0; i < d.size(); ++i) {
    if (!needed[i]) continue;
    ProofStep step = d.steps()[i];
    for (int& p : step.premises) p = new_index[p];
    new_index[i] = pruned.AddStep(std::move(step));
  }
  return pruned;
}

namespace {

// Canonical key of a constraint for memoization.
using ConstraintKey = std::pair<Mask, std::vector<Mask>>;

ConstraintKey KeyOf(const DifferentialConstraint& c) {
  std::vector<Mask> members;
  members.reserve(c.rhs().size());
  for (const ItemSet& m : c.rhs().members()) members.push_back(m.bits());
  return {c.lhs().bits(), std::move(members)};
}

// Incremental proof construction with per-conclusion memoization: deriving
// the same constraint twice reuses the earlier step.
class ProofBuilder {
 public:
  ProofBuilder(int n, const ConstraintSet& givens, const DeriveOptions& opts)
      : n_(n), givens_(givens), opts_(opts) {}

  Result<int> EmitGiven(int given_index) {
    const DifferentialConstraint& c = givens_[given_index];
    if (int existing = Lookup(c); existing >= 0) return existing;
    ProofStep step{InferenceRule::kGiven, {}, given_index, c};
    return Emit(std::move(step));
  }

  Result<int> EmitTriviality(const DifferentialConstraint& c) {
    if (int existing = Lookup(c); existing >= 0) return existing;
    if (!c.IsTrivial()) return Status::Internal("triviality on nontrivial constraint");
    ProofStep step{InferenceRule::kTriviality, {}, -1, c};
    return Emit(std::move(step));
  }

  Result<int> EmitAugmentation(int premise, const ItemSet& new_lhs) {
    DifferentialConstraint c(new_lhs, d_.steps()[premise].conclusion.rhs());
    if (int existing = Lookup(c); existing >= 0) return existing;
    ProofStep step{InferenceRule::kAugmentation, {premise}, -1, c};
    return Emit(std::move(step));
  }

  Result<int> EmitAddition(int premise, const ItemSet& new_member) {
    const DifferentialConstraint& p = d_.steps()[premise].conclusion;
    DifferentialConstraint c(p.lhs(), p.rhs().WithMember(new_member));
    if (c == p) return premise;  // Adding an existing member changes nothing.
    if (int existing = Lookup(c); existing >= 0) return existing;
    ProofStep step{InferenceRule::kAddition, {premise}, -1, c};
    return Emit(std::move(step));
  }

  Result<int> EmitElimination(int p1, int p2, DifferentialConstraint conclusion) {
    if (int existing = Lookup(conclusion); existing >= 0) return existing;
    ProofStep step{InferenceRule::kElimination, {p1, p2}, -1, std::move(conclusion)};
    return Emit(std::move(step));
  }

  const DifferentialConstraint& ConclusionOf(int step) const {
    return d_.steps()[step].conclusion;
  }

  int Lookup(const DifferentialConstraint& c) const {
    auto it = memo_.find(KeyOf(c));
    return it == memo_.end() ? -1 : it->second;
  }

  Derivation&& TakeDerivation() && { return std::move(d_); }

  int n() const { return n_; }
  const ConstraintSet& givens() const { return givens_; }

 private:
  Result<int> Emit(ProofStep step) {
    if (d_.steps().size() >= opts_.max_steps) {
      return Status::ResourceExhausted("derivation exceeds " +
                                       std::to_string(opts_.max_steps) + " steps");
    }
    int idx = d_.AddStep(step);
    memo_.emplace(KeyOf(d_.steps()[idx].conclusion), idx);
    return idx;
  }

  int n_;
  const ConstraintSet& givens_;
  DeriveOptions opts_;
  Derivation d_;
  std::map<ConstraintKey, int> memo_;
};

// Derives atom(u) from a given constraint whose lattice decomposition
// contains u. Returns the step index.
Result<int> DeriveAtom(ProofBuilder& b, const ItemSet& u) {
  const int n = b.n();
  DifferentialConstraint atom = AtomConstraint(n, u);
  if (int existing = b.Lookup(atom); existing >= 0) return existing;

  int source = -1;
  for (int i = 0; i < static_cast<int>(b.givens().size()); ++i) {
    const DifferentialConstraint& g = b.givens()[i];
    if (g.lhs().IsSubsetOf(u) && !g.rhs().SomeMemberSubsetOf(u)) {
      source = i;
      break;
    }
  }
  if (source == -1) {
    return Status::Internal("no premise covers lattice element");
  }

  Result<int> step = b.EmitGiven(source);
  if (!step.ok()) return step;
  if (b.givens()[source].lhs() != u) {
    step = b.EmitAugmentation(*step, u);
    if (!step.ok()) return step;
  }

  // Narrow every member M (which satisfies M ⊄ u) down to a singleton
  // {y} with y ∈ M ∖ u:  addition of {y}, then eliminate M against the
  // trivial constraint (u ∪ M) -> rest ∪ {{y}}.
  const std::vector<ItemSet> original_members = b.ConclusionOf(*step).rhs().members();
  for (const ItemSet& member : original_members) {
    ItemSet outside = member.Minus(u);
    ItemSet target = ItemSet::Singleton(LowestBit(outside.bits()));
    if (member == target) continue;
    SetFamily rest = b.ConclusionOf(*step).rhs().WithoutMember(member);
    Result<int> with_target = b.EmitAddition(*step, target);
    if (!with_target.ok()) return with_target;
    Result<int> trivial =
        b.EmitTriviality(DifferentialConstraint(u.Union(member), rest.WithMember(target)));
    if (!trivial.ok()) return trivial;
    step = b.EmitElimination(*with_target, *trivial,
                             DifferentialConstraint(u, rest.WithMember(target)));
    if (!step.ok()) return step;
  }

  // Pad with the remaining complement singletons.
  ForEachBit(u.ComplementIn(n).bits(), [&](int z) {
    if (!step.ok()) return;
    step = b.EmitAddition(*step, ItemSet::Singleton(z));
  });
  return step;
}

// Derives X -> {{w} | w ∈ W} for a witness-set leaf W of the goal's
// right-hand family: trivially when W meets X, otherwise by the
// elimination cascade of Proposition 4.7 over the atoms of [X, S∖W].
Result<int> DeriveWitnessLeaf(ProofBuilder& b, const ItemSet& x, const ItemSet& w) {
  const int n = b.n();
  DifferentialConstraint target(x, SetFamily::Singletons(w));
  if (int existing = b.Lookup(target); existing >= 0) return existing;
  if (!w.Intersect(x).empty()) return b.EmitTriviality(target);

  const SetFamily w_singletons = SetFamily::Singletons(w);
  const Mask v = FullMask(n) & ~(x.bits() | w.bits());

  // cur[U ∖ X] = step deriving U -> {{w}|w∈W} ∪ {{z}|z ∈ Vrem ∖ U}.
  std::map<Mask, int> cur;
  {
    Status first_error = Status::Ok();
    ForEachSubset(v, [&](Mask free) {
      if (!first_error.ok()) return;
      Result<int> atom = DeriveAtom(b, ItemSet(x.bits() | free));
      if (!atom.ok()) {
        first_error = atom.status();
        return;
      }
      cur[free] = *atom;
    });
    if (!first_error.ok()) return first_error;
  }

  Mask v_rem = v;
  while (v_rem != 0) {
    const int v_prime = LowestBit(v_rem);
    const Mask v_bit = Mask{1} << v_prime;
    v_rem &= ~v_bit;
    std::map<Mask, int> next;
    Status first_error = Status::Ok();
    ForEachSubset(v_rem, [&](Mask free) {
      if (!first_error.ok()) return;
      ItemSet u(x.bits() | free);
      SetFamily rhs = w_singletons;
      ForEachBit(v_rem & ~free, [&](int z) { rhs = rhs.WithMember(ItemSet::Singleton(z)); });
      Result<int> step =
          b.EmitElimination(cur[free], cur[free | v_bit], DifferentialConstraint(u, rhs));
      if (!step.ok()) {
        first_error = step.status();
        return;
      }
      next[free] = *step;
    });
    if (!first_error.ok()) return first_error;
    cur = std::move(next);
  }
  return cur[0];
}

// The union-rule induction of Proposition 4.6, expanded into base rules:
// derives x -> family from witness-set leaves.
Result<int> BuildFamily(ProofBuilder& b, const ItemSet& x, const SetFamily& family) {
  DifferentialConstraint target(x, family);
  if (int existing = b.Lookup(target); existing >= 0) return existing;
  if (target.IsTrivial()) return b.EmitTriviality(target);

  // Base case: every member a singleton (or the family empty) — the leaf
  // x -> {{w}|w∈W} for the witness set W = ∪family.
  bool all_singletons = true;
  ItemSet split_member;
  for (const ItemSet& m : family.members()) {
    if (m.size() >= 2) {
      all_singletons = false;
      split_member = m;
      break;
    }
  }
  if (all_singletons) return DeriveWitnessLeaf(b, x, family.UnionOfMembers());

  // Split M into Y1 = {m0} and Y2 = M ∖ {m0}; recurse; then expand the
  // union rule: from  a: X -> F∪{Y1}  and  b: X -> F∪{Y2}  conclude
  // X -> F∪{M}.
  const ItemSet y1 = ItemSet::Singleton(LowestBit(split_member.bits()));
  const ItemSet y2 = split_member.Minus(y1);
  const SetFamily rest = family.WithoutMember(split_member);

  Result<int> left = BuildFamily(b, x, rest.WithMember(y1));
  if (!left.ok()) return left;
  Result<int> right = BuildFamily(b, x, rest.WithMember(y2));
  if (!right.ok()) return right;

  Result<int> s1 = b.EmitAddition(*left, split_member);
  if (!s1.ok()) return s1;
  Result<int> s2 = b.EmitAugmentation(*right, x.Union(y1));
  if (!s2.ok()) return s2;
  Result<int> s3 = b.EmitAddition(*s2, split_member);
  if (!s3.ok()) return s3;
  Result<int> s4 = b.EmitTriviality(
      DifferentialConstraint(x.Union(split_member), rest.WithMember(split_member)));
  if (!s4.ok()) return s4;
  Result<int> s5 = b.EmitElimination(
      *s3, *s4, DifferentialConstraint(x.Union(y1), rest.WithMember(split_member)));
  if (!s5.ok()) return s5;
  return b.EmitElimination(*s1, *s5, target);
}

}  // namespace

Result<Derivation> DeriveImplied(int n, const ConstraintSet& givens,
                                 const DifferentialConstraint& goal,
                                 const DeriveOptions& opts) {
  ProofBuilder builder(n, givens, opts);
  if (goal.IsTrivial()) {
    Result<int> step = builder.EmitTriviality(goal);
    if (!step.ok()) return step.status();
    return std::move(builder).TakeDerivation();
  }

  Result<ImplicationOutcome> implied = CheckImplicationSat(n, givens, goal);
  if (!implied.ok()) return implied.status();
  if (!implied->implied) {
    return Status::NotFound("goal is not implied; no derivation exists");
  }

  Result<int> final_step = BuildFamily(builder, goal.lhs(), goal.rhs());
  if (!final_step.ok()) return final_step.status();
  if (builder.ConclusionOf(*final_step) != goal) {
    return Status::Internal("proof generator concluded the wrong constraint");
  }
  // If the goal was memoized before the last emitted step, restate it at
  // the end with a no-op augmentation so `conclusion()` is the goal.
  Derivation d = std::move(builder).TakeDerivation();
  if (d.conclusion() != goal) {
    d.AddStep(ProofStep{InferenceRule::kAugmentation, {*final_step}, -1, goal});
  }
  return d;
}

}  // namespace diffc
