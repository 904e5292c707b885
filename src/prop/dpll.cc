#include "prop/dpll.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace diffc::prop {

namespace {

// Literal value under a partial assignment: kTrue/kFalse/kUnassigned.
std::int8_t LitValue(Literal lit, const std::vector<std::int8_t>& assignment) {
  std::int8_t v = assignment[std::abs(lit) - 1];
  if (v < 0) return v;
  return (lit > 0) == (v == 1) ? std::int8_t{1} : std::int8_t{0};
}

// Registry handles for the DPLL solver. The hot loops only touch the local
// `stats_` struct; these aggregates are flushed once per Solve() call.
struct DpllMetrics {
  obs::Counter* solves;
  obs::Counter* decisions;
  obs::Counter* propagations;
  obs::Counter* conflicts;

  DpllMetrics() {
    obs::Registry& r = obs::Registry::Global();
    solves = r.GetCounter("diffc_dpll_solves_total", "DPLL Solve() calls.");
    decisions = r.GetCounter("diffc_dpll_decisions_total", "DPLL branch decisions.");
    propagations =
        r.GetCounter("diffc_dpll_propagations_total", "DPLL unit propagations.");
    conflicts = r.GetCounter("diffc_dpll_conflicts_total", "DPLL conflicts.");
  }
};

DpllMetrics& Metrics() {
  static DpllMetrics* m = new DpllMetrics();
  return *m;
}

// Flushes the per-call stats to the registry on every exit path of Solve().
class FlushStatsOnExit {
 public:
  explicit FlushStatsOnExit(const SolverStats* stats) : stats_(stats) {}
  ~FlushStatsOnExit() {
    DpllMetrics& m = Metrics();
    m.solves->Inc();
    if (stats_->decisions > 0) m.decisions->Inc(stats_->decisions);
    if (stats_->propagations > 0) m.propagations->Inc(stats_->propagations);
    if (stats_->conflicts > 0) m.conflicts->Inc(stats_->conflicts);
  }

 private:
  const SolverStats* stats_;
};

}  // namespace

Result<SatResult> DpllSolver::Solve(const Cnf& cnf) {
  stats_ = SolverStats{};
  FlushStatsOnExit flush(&stats_);
  budget_exceeded_ = false;
  stop_status_ = Status::Ok();
  for (const Clause& clause : cnf.clauses) {
    if (clause.empty()) return SatResult{};  // Trivially unsatisfiable.
    for (Literal lit : clause) {
      if (lit == 0 || std::abs(lit) > cnf.num_vars) {
        return Status::InvalidArgument("literal out of range in CNF");
      }
    }
  }
  std::vector<std::int8_t> assignment(cnf.num_vars, kUnassigned);
  bool sat = Search(cnf, assignment);
  if (!stop_status_.ok()) return stop_status_;
  if (budget_exceeded_) {
    return Status::ResourceExhausted("DPLL decision budget exceeded");
  }
  SatResult result;
  result.satisfiable = sat;
  if (sat) {
    result.model.resize(cnf.num_vars);
    for (int v = 0; v < cnf.num_vars; ++v) {
      // Variables untouched by the search are irrelevant; default to false.
      result.model[v] = assignment[v] == kTrue;
    }
  }
  return result;
}

bool DpllSolver::Propagate(const Cnf& cnf, std::vector<std::int8_t>& assignment,
                           std::vector<int>& trail) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Clause& clause : cnf.clauses) {
      Literal unit = 0;
      bool satisfied = false;
      int unassigned = 0;
      for (Literal lit : clause) {
        std::int8_t v = LitValue(lit, assignment);
        if (v == 1) {
          satisfied = true;
          break;
        }
        if (v == kUnassigned) {
          ++unassigned;
          unit = lit;
          if (unassigned > 1) break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) {
        ++stats_.conflicts;
        return false;  // All literals false: conflict.
      }
      if (unassigned == 1) {
        int var = std::abs(unit) - 1;
        assignment[var] = unit > 0 ? kTrue : kFalse;
        trail.push_back(var);
        ++stats_.propagations;
        changed = true;
      }
    }
  }
  return true;
}

int DpllSolver::PickBranchVariable(const Cnf& cnf,
                                   const std::vector<std::int8_t>& assignment) const {
  // Most occurrences among clauses that are not yet satisfied.
  std::vector<int> score(cnf.num_vars, 0);
  for (const Clause& clause : cnf.clauses) {
    bool satisfied = false;
    for (Literal lit : clause) {
      if (LitValue(lit, assignment) == 1) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) continue;
    for (Literal lit : clause) {
      int var = std::abs(lit) - 1;
      if (assignment[var] == kUnassigned) ++score[var];
    }
  }
  int best = -1;
  for (int v = 0; v < cnf.num_vars; ++v) {
    if (assignment[v] == kUnassigned && (best == -1 || score[v] > score[best])) best = v;
  }
  return best;
}

bool DpllSolver::Search(const Cnf& cnf, std::vector<std::int8_t>& assignment) {
  if (budget_exceeded_ || !stop_status_.ok()) return false;
  // Cooperative check-point: amortized inside StopCheck, so this is a
  // branch and a decrement on all but every 1024th node.
  if (stop_ != nullptr) {
    Status s = stop_->Check();
    if (!s.ok()) {
      stop_status_ = std::move(s);
      return false;
    }
  }
  std::vector<int> trail;
  if (!Propagate(cnf, assignment, trail)) {
    for (int v : trail) assignment[v] = kUnassigned;
    return false;
  }
  int var = PickBranchVariable(cnf, assignment);
  if (var == -1) return true;  // Complete assignment, no conflict: model.

  for (std::int8_t phase : {kTrue, kFalse}) {
    if (!stop_status_.ok()) break;
    if (++stats_.decisions > max_decisions_) {
      budget_exceeded_ = true;
      break;
    }
    assignment[var] = phase;
    if (Search(cnf, assignment)) return true;
    assignment[var] = kUnassigned;
  }
  for (int v : trail) assignment[v] = kUnassigned;
  return false;
}

}  // namespace diffc::prop
