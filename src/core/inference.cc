#include "core/inference.h"

#include <utility>

#include "core/implication.h"

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

namespace {

// The counterexample search behind `DeriveImplied`, emitting a Figure 1
// step whenever it closes a node. A node (A, B) claims A -> Y ∪ B̄ with
// B̄ = {{b} | b ∈ B}; `Prove` returns the index of the step concluding it.
class ProofSearch {
 public:
  ProofSearch(const ConstraintSet& givens, const DifferentialConstraint& goal,
              std::size_t max_steps)
      : givens_(givens), goal_(goal), max_steps_(max_steps), given_steps_(givens.size(), -1) {}

  // Proves node (a, b). Returns -1 when no step concludes it: the budget is
  // spent (the search goes on deciding), or U = a is a counterexample (the
  // search stops).
  int Prove(Mask a, Mask b) {
    if (goal_.rhs().SomeMemberSubsetOf(ItemSet(a))) {
      return Emit(InferenceRule::kTriviality, {}, Claim(a, b));
    }
    // A given with X' ⊆ A and no member inside A is violated by U = A. One
    // whose members all meet B closes the node; otherwise the one with the
    // fewest live members (those missing B) picks the split.
    int violated = -1;
    int fewest_live = 0;
    for (int i = 0; i < static_cast<int>(givens_.size()); ++i) {
      const DifferentialConstraint& given = givens_[i];
      if (!IsSubset(given.lhs().bits(), a) || given.rhs().SomeMemberSubsetOf(ItemSet(a))) {
        continue;
      }
      int live = 0;
      for (const ItemSet& m : given.rhs().members()) live += (m.bits() & b) == 0 ? 1 : 0;
      if (live == 0) return CloseByGiven(i, a, b);
      if (violated < 0 || live < fewest_live) {
        violated = i;
        fewest_live = live;
      }
    }
    if (violated < 0) {
      refuted_ = true;
      return -1;
    }
    const Mask bit = SplitBit(a, b, givens_[violated]);
    const int in = Prove(a | bit, b);
    if (refuted_) return -1;
    const int out = Prove(a, b | bit);
    if (refuted_) return -1;
    return Emit(InferenceRule::kElimination, {out, in}, Claim(a, b));
  }

  bool refuted() const { return refuted_; }
  bool exhausted() const { return exhausted_; }
  Derivation&& TakeDerivation() && { return std::move(d_); }

 private:
  // Y ∪ B̄.
  SetFamily ClaimRhs(Mask b) const {
    std::vector<ItemSet> members = goal_.rhs().members();
    ForEachBit(b, [&](int z) { members.push_back(ItemSet::Singleton(z)); });
    return SetFamily(std::move(members));
  }

  DifferentialConstraint Claim(Mask a, Mask b) const {
    return DifferentialConstraint(ItemSet(a), ClaimRhs(b));
  }

  // The split attribute, chosen as `engine/sat_kernel.cc` chooses it: the
  // open bit of a goal member with one open bit and none in B (its A-child
  // closes by triviality), else the lowest open bit of the narrowest live
  // member of `violated`.
  Mask SplitBit(Mask a, Mask b, const DifferentialConstraint& violated) const {
    for (const ItemSet& y : goal_.rhs().members()) {
      const Mask open = y.bits() & ~a;
      if ((y.bits() & b) == 0 && Popcount(open) == 1) return open;
    }
    Mask narrowest = 0;
    for (const ItemSet& m : violated.rhs().members()) {
      const Mask open = m.bits() & ~a;
      if ((m.bits() & b) != 0) continue;
      if (narrowest == 0 || Popcount(open) < Popcount(narrowest)) narrowest = open;
    }
    return narrowest & (~narrowest + 1);
  }

  // Derives the claim of (a, b) from given `i`, whose X' lies inside A and
  // whose every member meets B: cite the given, augment it to A, replace
  // each member M by {t} with t the lowest bit of M ∩ B (member
  // replacement, docs/PROOFS.md), then add the claim's missing members.
  int CloseByGiven(int i, Mask a, Mask b) {
    const DifferentialConstraint& given = givens_[i];
    if (given_steps_[i] < 0) given_steps_[i] = Emit(InferenceRule::kGiven, {}, given, i);
    int step = given_steps_[i];
    const ItemSet lhs(a);
    SetFamily rhs = given.rhs();
    if (given.lhs() != lhs) {
      step = Emit(InferenceRule::kAugmentation, {step}, DifferentialConstraint(lhs, rhs));
    }
    for (const ItemSet& member : given.rhs().members()) {
      const ItemSet t = ItemSet::Singleton(LowestBit(member.bits() & b));
      if (member == t) continue;
      const int widened = Add(step, lhs, &rhs, t);
      rhs = rhs.WithoutMember(member);
      const int trivial = Emit(InferenceRule::kTriviality, {},
                               DifferentialConstraint(lhs.Union(member), rhs));
      step = Emit(InferenceRule::kElimination, {widened, trivial},
                  DifferentialConstraint(lhs, rhs));
    }
    for (const ItemSet& member : ClaimRhs(b).members()) step = Add(step, lhs, &rhs, member);
    return step;
  }

  // Addition of `member` to lhs -> *rhs; no step when it is a member already.
  int Add(int step, const ItemSet& lhs, SetFamily* rhs, const ItemSet& member) {
    if (rhs->HasMember(member)) return step;
    *rhs = rhs->WithMember(member);
    return Emit(InferenceRule::kAddition, {step}, DifferentialConstraint(lhs, *rhs));
  }

  // Appends a step and returns its index, or -1 once the budget is spent.
  int Emit(InferenceRule rule, std::vector<int> premises, DifferentialConstraint conclusion,
           int given_index = -1) {
    if (static_cast<std::size_t>(d_.size()) >= max_steps_) {
      exhausted_ = true;
      return -1;
    }
    return d_.AddStep(ProofStep{rule, std::move(premises), given_index, std::move(conclusion)});
  }

  const ConstraintSet& givens_;
  const DifferentialConstraint& goal_;
  const std::size_t max_steps_;
  std::vector<int> given_steps_;  // The kGiven step citing each given, or -1.
  Derivation d_;
  bool refuted_ = false;
  bool exhausted_ = false;
};

}  // namespace

Result<Derivation> DeriveImplied(int n, const ConstraintSet& givens,
                                 const DifferentialConstraint& goal,
                                 const DeriveOptions& opts) {
  if (Status s = CheckInUniverse(n, goal, "goal"); !s.ok()) return s;
  for (const DifferentialConstraint& given : givens) {
    if (Status s = CheckInUniverse(n, given, "given"); !s.ok()) return s;
  }
  // A singleton goal member {b} already stands in for b ∈ B, so the root
  // (X, B) with B the singleton members' attributes outside X claims the
  // goal, and the search never splits on them.
  Mask singletons = 0;
  for (const ItemSet& y : goal.rhs().members()) {
    if (y.size() == 1) singletons |= y.bits();
  }
  ProofSearch search(givens, goal, opts.max_steps);
  search.Prove(goal.lhs().bits(), singletons & ~goal.lhs().bits());
  if (search.refuted()) return Status::NotFound("goal is not implied; no derivation exists");
  if (search.exhausted()) {
    return Status::ResourceExhausted("derivation exceeds " + std::to_string(opts.max_steps) +
                                     " steps");
  }
  return std::move(search).TakeDerivation();
}

}  // namespace diffc
