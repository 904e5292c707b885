#include "fis/frequency.h"

#include <numeric>

#include "core/implication.h"

namespace diffc {

bool SatisfiesFrequencyConstraint(const BasketList& b, const FrequencyConstraint& c) {
  const std::int64_t s = b.SupportCount(c.itemset);
  if (s < c.lo) return false;
  if (c.hi.has_value() && s > *c.hi) return false;
  return true;
}

std::vector<FrequencyConstraint> ExactConstraintsOf(const BasketList& b,
                                                    const std::vector<ItemSet>& itemsets) {
  std::vector<FrequencyConstraint> out;
  out.reserve(itemsets.size());
  for (const ItemSet& x : itemsets) {
    const std::int64_t s = b.SupportCount(x);
    out.push_back({x, s, s});
  }
  return out;
}

namespace {

// The density variables that differential constraints leave alive, and
// the LP rows of the frequency constraints over them.
struct DensityLp {
  std::vector<Mask> live;  // Variable index -> subset.
  LpProblem problem;
};

Result<DensityLp> BuildLp(int n, const std::vector<FrequencyConstraint>& frequency,
                          const ConstraintSet& differential, int max_bits) {
  if (n > max_bits) {
    return Status::ResourceExhausted("density LP over " + std::to_string(n) +
                                     " items (2^n variables)");
  }
  DensityLp lp;
  const Mask full = FullMask(n);
  for (Mask u = 0;; ++u) {
    if (!InConstraintLattice(differential, ItemSet(u))) lp.live.push_back(u);
    if (u == full) break;
  }
  lp.problem.num_vars = static_cast<int>(lp.live.size());
  lp.problem.objective.assign(lp.problem.num_vars, Rational(0));

  auto support_row = [&](const ItemSet& x) {
    std::vector<Rational> coeffs(lp.problem.num_vars);
    for (int j = 0; j < lp.problem.num_vars; ++j) {
      if (IsSubset(x.bits(), lp.live[j])) coeffs[j] = Rational(1);
    }
    return coeffs;
  };

  for (const FrequencyConstraint& c : frequency) {
    if (!IsSubset(c.itemset.bits(), full)) {
      return Status::InvalidArgument("frequency constraint outside the universe");
    }
    if (c.hi.has_value() && *c.hi < c.lo) {
      return Status::InvalidArgument("frequency constraint with hi < lo");
    }
    if (c.lo > 0) {
      lp.problem.constraints.push_back(
          {support_row(c.itemset), LpSense::kGe, Rational(c.lo)});
    }
    if (c.hi.has_value()) {
      lp.problem.constraints.push_back(
          {support_row(c.itemset), LpSense::kLe, Rational(*c.hi)});
    }
  }
  return lp;
}

}  // namespace

Result<FrequencyConsistency> CheckFrequencyConsistency(
    int n, const std::vector<FrequencyConstraint>& frequency,
    const ConstraintSet& differential, int max_bits) {
  Result<DensityLp> lp = BuildLp(n, frequency, differential, max_bits);
  if (!lp.ok()) return lp.status();
  Result<LpSolution> solution = SolveLp(lp->problem);
  if (!solution.ok()) return solution.status();

  FrequencyConsistency out;
  out.consistent = solution->outcome != LpOutcome::kInfeasible;
  if (!out.consistent) return out;

  // Scale the rational vertex to an integer density -> basket list.
  std::int64_t scale = 1;
  for (const Rational& v : solution->values) {
    scale = std::lcm(scale, v.den());
  }
  std::vector<Mask> baskets;
  for (std::size_t j = 0; j < solution->values.size(); ++j) {
    const Rational scaled = solution->values[j] * Rational(scale);
    for (std::int64_t k = 0; k < scaled.num(); ++k) {
      baskets.push_back(lp->live[j]);
    }
  }
  Result<BasketList> witness = BasketList::Make(n, std::move(baskets));
  if (!witness.ok()) return witness.status();
  out.scaling = scale;
  // Only expose the witness when it satisfies the stated bounds verbatim
  // (always true when no scaling was needed; two-sided bounds may break
  // under scaling).
  bool verbatim = true;
  for (const FrequencyConstraint& c : frequency) {
    if (!SatisfiesFrequencyConstraint(*witness, c)) {
      verbatim = false;
      break;
    }
  }
  if (verbatim) out.witness = *std::move(witness);
  return out;
}

Result<SupportInterval> ImpliedSupportInterval(
    int n, const std::vector<FrequencyConstraint>& frequency,
    const ConstraintSet& differential, const ItemSet& target, int max_bits) {
  Result<DensityLp> lp = BuildLp(n, frequency, differential, max_bits);
  if (!lp.ok()) return lp.status();

  // Objective: s(target) over the live densities.
  for (int j = 0; j < lp->problem.num_vars; ++j) {
    lp->problem.objective[j] =
        IsSubset(target.bits(), lp->live[j]) ? Rational(1) : Rational(0);
  }

  Result<LpSolution> max_solution = SolveLp(lp->problem);
  if (!max_solution.ok()) return max_solution.status();
  if (max_solution->outcome == LpOutcome::kInfeasible) {
    return Status::FailedPrecondition("constraints are inconsistent");
  }

  for (Rational& c : lp->problem.objective) c = -c;
  Result<LpSolution> min_solution = SolveLp(lp->problem);
  if (!min_solution.ok()) return min_solution.status();
  if (min_solution->outcome == LpOutcome::kUnbounded) {
    return Status::Internal("support cannot be unbounded below");
  }

  SupportInterval interval;
  interval.lo = -min_solution->objective_value;
  if (max_solution->outcome == LpOutcome::kOptimal) {
    interval.hi = max_solution->objective_value;
  }
  return interval;
}

}  // namespace diffc
