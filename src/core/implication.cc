#include "core/implication.h"

#include <iterator>

#include "lattice/decomposition.h"
#include "prop/cnf.h"
#include "prop/implication_constraint.h"
#include "util/failpoint.h"

namespace diffc {

bool InConstraintLattice(const ConstraintSet& premises, const ItemSet& u) {
  for (const DifferentialConstraint& p : premises) {
    if (p.lhs().IsSubsetOf(u) && !p.rhs().SomeMemberSubsetOf(u)) return true;
  }
  return false;
}

bool InConstraintLattice(const PremiseMasks& premises, Mask u) {
  for (const PremiseMasks::Premise& p : premises.premises) {
    if (IsSubset(p.lhs, u) && !premises.SomeMemberSubsetOf(p, u)) return true;
  }
  return false;
}

Result<ImplicationOutcome> CheckImplicationExhaustive(int n, const ConstraintSet& premises,
                                                      const DifferentialConstraint& goal,
                                                      int max_free_bits, StopCheck* stop) {
  const int free_bits = n - goal.lhs().size();
  if (free_bits > max_free_bits) {
    return Status::ResourceExhausted("exhaustive implication over " +
                                     std::to_string(free_bits) + " free attributes");
  }
  ImplicationOutcome out;
  out.SetImplied();
  // Manual superset walk (rather than ForEachSuperset) so a counterexample
  // or a fired stop condition breaks out without visiting the remaining
  // 2^free_bits - k supersets.
  const Mask fixed = goal.lhs().bits();
  const Mask free = FullMask(n) & ~fixed;
  Mask sub = free;
  while (true) {
    if (stop != nullptr) {
      Status s = stop->Check();
      if (!s.ok()) return s;
    }
    ItemSet u(fixed | sub);
    if (!goal.rhs().SomeMemberSubsetOf(u) && !InConstraintLattice(premises, u)) {
      out.SetNotImplied(u);
      break;
    }
    if (sub == 0) break;
    sub = (sub - 1) & free;
  }
  return out;
}

PremiseTranslation TranslatePremises(int n, const ConstraintSet& premises) {
  PremiseTranslation out;
  out.num_vars = n;
  // Each premise must not witness U: X' ⊄ U, or some member of Y' ⊆ U —
  // one clause block per premise (`TranslateImplicationConstraint`), with
  // auxiliary variables numbered consecutively across blocks.
  for (const DifferentialConstraint& p : premises) {
    prop::ConstraintClauseBlock block =
        prop::TranslateImplicationConstraint(p.lhs(), p.rhs(), out.num_vars + 1);
    out.num_vars += block.aux_vars;
    out.clauses.insert(out.clauses.end(), std::make_move_iterator(block.clauses.begin()),
                       std::make_move_iterator(block.clauses.end()));
  }
  return out;
}

Result<ImplicationOutcome> CheckImplicationSat(int n, const ConstraintSet& premises,
                                               const DifferentialConstraint& goal,
                                               prop::SolverStats* stats) {
  if (DIFFC_FAILPOINT("cnf/translate")) {
    return Status::Internal("failpoint cnf/translate: CNF translation failed");
  }
  PremiseTranslation translation = TranslatePremises(n, premises);
  prop::Cnf cnf;
  cnf.num_vars = translation.num_vars;

  // U must contain the goal's left-hand side...
  ForEachBit(goal.lhs().bits(), [&](int a) { cnf.AddClause({a + 1}); });
  // ...and no goal member (so U ∈ L(X, Y)). An empty member yields the
  // empty clause: the goal is trivial and the CNF unsatisfiable, as wanted.
  for (const ItemSet& member : goal.rhs().members()) {
    prop::Clause clause;
    ForEachBit(member.bits(), [&](int y) { clause.push_back(-(y + 1)); });
    cnf.AddClause(std::move(clause));
  }
  // The premise clauses of Proposition 5.4.
  cnf.clauses.insert(cnf.clauses.end(), std::make_move_iterator(translation.clauses.begin()),
                     std::make_move_iterator(translation.clauses.end()));

  prop::DpllSolver solver;
  Result<prop::SatResult> sat = solver.Solve(cnf);
  if (stats != nullptr) *stats = solver.stats();
  if (!sat.ok()) return sat.status();

  ImplicationOutcome out;
  if (sat->satisfiable) {
    Mask u = 0;
    for (int i = 0; i < n; ++i) {
      if (sat->model[i]) u |= Mask{1} << i;
    }
    out.SetNotImplied(ItemSet(u));
  } else {
    out.SetImplied();
  }
  return out;
}

bool FdSubclassApplicable(const ConstraintSet& premises, const DifferentialConstraint& goal) {
  if (goal.rhs().size() != 1) return false;
  for (const DifferentialConstraint& p : premises) {
    if (p.rhs().size() != 1) return false;
  }
  return true;
}

FdPremiseIndex BuildFdPremiseIndex(const PremiseMasks& premises) {
  FdPremiseIndex index;
  for (const PremiseMasks::Premise& p : premises.premises) {
    if (p.size() != 1) return index;  // eligible stays false.
  }
  index.eligible = true;
  index.fds.reserve(premises.size());
  for (const PremiseMasks::Premise& p : premises.premises) {
    index.fds.emplace_back(ItemSet(p.lhs), ItemSet(premises.members[p.begin]));
  }
  return index;
}

ItemSet FdClosure(const FdPremiseIndex& index, ItemSet x) {
  // Attribute-set closure under the premises read as functional
  // dependencies X' -> Y'.
  ItemSet closure = x;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [lhs, rhs] : index.fds) {
      if (lhs.IsSubsetOf(closure) && !rhs.IsSubsetOf(closure)) {
        closure = closure.Union(rhs);
        changed = true;
      }
    }
  }
  return closure;
}

Result<ImplicationOutcome> CheckImplicationFdIndexed(int n, const FdPremiseIndex& index,
                                                     const DifferentialConstraint& goal) {
  // Unused: the FD closure works on attribute sets and never materializes
  // the universe; `n` is kept for signature parity with the other checkers.
  (void)n;
  if (!index.eligible || goal.rhs().size() != 1) {
    return Status::FailedPrecondition(
        "FD subclass requires single-member right-hand sides");
  }
  const ItemSet closure = FdClosure(index, goal.lhs());
  ImplicationOutcome out;
  if (goal.rhs().member(0).IsSubsetOf(closure)) {
    out.SetImplied();
  } else {
    out.SetNotImplied(closure);
  }
  return out;
}

Result<ImplicationOutcome> CheckImplicationFd(int n, const ConstraintSet& premises,
                                              const DifferentialConstraint& goal) {
  if (!FdSubclassApplicable(premises, goal)) {
    return Status::FailedPrecondition(
        "FD subclass requires single-member right-hand sides");
  }
  return CheckImplicationFdIndexed(n, BuildFdPremiseIndex(PremiseMasks::Compile(premises)),
                                   goal);
}

Result<ImplicationOutcome> CheckImplication(int n, const ConstraintSet& premises,
                                            const DifferentialConstraint& goal) {
  if (goal.IsTrivial()) {
    ImplicationOutcome out;
    out.SetImplied();
    return out;
  }
  if (FdSubclassApplicable(premises, goal)) {
    return CheckImplicationFd(n, premises, goal);
  }
  return CheckImplicationSat(n, premises, goal);
}

ConstraintSet DnfTautologyReduction(const prop::DnfFormula& f) {
  ConstraintSet out;
  out.reserve(f.conjuncts.size());
  for (const prop::DnfConjunct& c : f.conjuncts) {
    std::vector<ItemSet> members;
    ForEachBit(c.neg, [&](int q) { members.push_back(ItemSet::Singleton(q)); });
    out.push_back(DifferentialConstraint(ItemSet(c.pos), SetFamily(std::move(members))));
  }
  return out;
}

DifferentialConstraint TautologyGoal() {
  return DifferentialConstraint(ItemSet(), SetFamily());
}

}  // namespace diffc
