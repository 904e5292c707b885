#include "engine/sat_kernel.h"

#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace diffc {

namespace {

// Registry handles of the kernel (`diffc_engine_sat_*`), looked up once.
// The search only touches its local `prop::SolverStats`; the totals are
// flushed once per search.
struct KernelMetrics {
  obs::Counter* nodes;
  obs::Counter* propagations;
  obs::Counter* conflicts;

  KernelMetrics() {
    obs::Registry& r = obs::Registry::Global();
    nodes = r.GetCounter("diffc_engine_sat_nodes_total",
                         "Counterexample-search nodes visited by the sat procedure.");
    propagations =
        r.GetCounter("diffc_engine_sat_propagations_total",
                     "Attributes placed by the sat procedure's unit rules.");
    conflicts = r.GetCounter("diffc_engine_sat_conflicts_total",
                             "Dead ends of the sat procedure's counterexample search.");
  }
};

KernelMetrics& Metrics() {
  static KernelMetrics* m = new KernelMetrics();
  return *m;
}

// True iff the nonzero mask `m` has exactly one bit.
bool SingleBit(Mask m) { return (m & (m - 1)) == 0; }

// One counterexample search. `in` and `out` travel by value down the
// recursion (depth at most 64), so the search allocates nothing.
class Search {
 public:
  Search(const PremiseMasks& premises, const SetFamily& goal_rhs, std::uint64_t max_nodes,
         StopCheck* stop)
      : premises_(premises), goal_rhs_(goal_rhs), max_nodes_(max_nodes), stop_(stop) {}

  // Searches below (in, out); true when a counterexample was found (left in
  // `found()`). False when the subtree holds none, or the search halted.
  bool Visit(Mask in, Mask out) {
    if (++stats_.decisions > max_nodes_) {
      exhausted_ = true;
      return false;
    }
    if (stop_ != nullptr) {
      Status s = stop_->Check();
      if (!s.ok()) {
        stop_status_ = std::move(s);
        return false;
      }
    }
    Mask bit = 0;
    if (!Propagate(in, out, &bit)) return false;
    if (bit == 0) {
      found_ = in;
      return true;
    }
    if (Visit(in | bit, out)) return true;
    return !halted() && Visit(in, out | bit);
  }

  bool halted() const { return exhausted_ || !stop_status_.ok(); }
  bool exhausted() const { return exhausted_; }
  const Status& stop_status() const { return stop_status_; }
  Mask found() const { return found_; }
  const prop::SolverStats& stats() const { return stats_; }

 private:
  // Applies the unit rules to a fixpoint; false on a conflict. Otherwise
  // `*bit` is the branching bit: the lowest open bit of the narrowest live
  // member of the violated premise with the fewest live members, or 0 when
  // no premise is violated (so `in` is a counterexample).
  bool Propagate(Mask& in, Mask& out, Mask* bit) {
    while (true) {
      bool changed = false;
      // Each goal member needs a bit outside U.
      for (const ItemSet& member : goal_rhs_.members()) {
        const Mask y = member.bits();
        if ((y & out) != 0) continue;
        const Mask open = y & ~in;
        if (open == 0) {
          ++stats_.conflicts;
          return false;
        }
        if (SingleBit(open)) {
          out |= open;
          ++stats_.propagations;
          changed = true;
        }
      }
      // Each premise must not witness U: some bit of X' outside U, or some
      // member inside U.
      std::size_t branch = premises_.size();
      int branch_live = 0;
      for (std::size_t p = 0; p < premises_.size(); ++p) {
        const Mask x = premises_.premises[p].lhs;
        if ((x & out) != 0) continue;
        int live = 0;
        Mask live_member = 0;
        bool satisfied = false;
        for (const Mask y : premises_.family(premises_.premises[p])) {
          if ((y & out) != 0) continue;
          if ((y & ~in) == 0) {
            satisfied = true;
            break;
          }
          ++live;
          live_member = y;
        }
        if (satisfied) continue;
        const Mask open_x = x & ~in;
        if (live == 0) {
          if (open_x == 0) {
            ++stats_.conflicts;
            return false;
          }
          if (SingleBit(open_x)) {
            out |= open_x;
            ++stats_.propagations;
            changed = true;
          }
          continue;
        }
        if (open_x != 0) continue;  // Not violated while X' is not inside `in`.
        if (live == 1) {
          stats_.propagations += static_cast<std::uint64_t>(Popcount(live_member & ~in));
          in |= live_member;
          changed = true;
          continue;
        }
        if (branch_live == 0 || live < branch_live) {
          branch = p;
          branch_live = live;
        }
      }
      if (changed) continue;
      *bit = 0;
      if (branch == premises_.size()) return true;
      Mask narrowest = 0;
      for (const Mask y : premises_.family(premises_.premises[branch])) {
        if ((y & out) != 0) continue;
        const Mask open = y & ~in;
        if (narrowest == 0 || Popcount(open) < Popcount(narrowest)) narrowest = open;
      }
      *bit = narrowest & (~narrowest + 1);
      return true;
    }
  }

  const PremiseMasks& premises_;
  const SetFamily& goal_rhs_;
  const std::uint64_t max_nodes_;
  StopCheck* const stop_;
  prop::SolverStats stats_;
  Mask found_ = 0;
  bool exhausted_ = false;
  Status stop_status_;
};

}  // namespace

Result<ImplicationOutcome> SearchCounterexample(int n, const PremiseMasks& premises,
                                                const DifferentialConstraint& goal,
                                                std::uint64_t max_nodes, StopCheck* stop,
                                                prop::SolverStats* stats) {
  if (DIFFC_FAILPOINT("sat/kernel")) {
    return Status::Internal("failpoint sat/kernel: counterexample search failed");
  }
  Search search(premises, goal.rhs(), max_nodes, stop);
  // Attributes outside the universe are never in U; a goal whose X leaves
  // the universe has an empty L(X, Y) and is implied.
  const Mask in = goal.lhs().bits();
  const Mask out = ~FullMask(n);
  const bool found = (in & out) == 0 && search.Visit(in, out);

  const prop::SolverStats& work = search.stats();
  if (stats != nullptr) *stats = work;
  if (obs::MetricsEnabled()) {
    KernelMetrics& m = Metrics();
    if (work.decisions > 0) m.nodes->Inc(work.decisions);
    if (work.propagations > 0) m.propagations->Inc(work.propagations);
    if (work.conflicts > 0) m.conflicts->Inc(work.conflicts);
  }
  if (!search.stop_status().ok()) return search.stop_status();
  if (search.exhausted()) {
    return Status::ResourceExhausted("sat search node budget exceeded");
  }
  ImplicationOutcome outcome;
  if (found) {
    outcome.SetNotImplied(ItemSet(search.found()));
  } else {
    outcome.SetImplied();
  }
  return outcome;
}

}  // namespace diffc
