#include "engine/prepared_premises.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "rewrite/simplifier.h"

namespace diffc {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Registry handles of the prepare stage (`diffc_engine_prepare_*`), looked
// up once.
struct PrepareMetrics {
  obs::Counter* builds;
  obs::Counter* dropped_premises;
  obs::Histogram* build_seconds;

  PrepareMetrics() {
    obs::Registry& r = obs::Registry::Global();
    builds = r.GetCounter("diffc_engine_prepare_total",
                          "PreparedPremises compilations (cache misses and direct builds).");
    dropped_premises =
        r.GetCounter("diffc_engine_prepare_dropped_premises_total",
                     "Premises removed by canonicalization (trivial, subsumed, or merged).");
    build_seconds = r.GetHistogram("diffc_engine_prepare_seconds",
                                   "End-to-end PreparedPremises build wall time.",
                                   obs::ExponentialBuckets(1e-7, 4.0, 12));
  }
};

PrepareMetrics& Metrics() {
  static PrepareMetrics* m = new PrepareMetrics();
  return *m;
}

}  // namespace

Result<std::shared_ptr<const PreparedPremises>> PreparedPremises::Build(
    int n, const ConstraintSet& premises) {
  if (n < 0 || n > 64) {
    return Status::InvalidArgument("universe size must be in [0, 64]");
  }
  static std::atomic<std::uint64_t> next_id{1};

  auto prepared = std::shared_ptr<PreparedPremises>(new PreparedPremises());
  prepared->n_ = n;
  prepared->id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  PrepareStats& stats = prepared->stats_;
  stats.input_constraints = premises.size();
  const std::uint64_t start = NowNs();

  // Canonicalize in place through the rule-driven rewrite simplifier
  // (DESIGN.md §14): every rule preserves L(C) exactly, so verdicts against
  // the artifact are valid against the original set.
  PremiseMasks& masks = prepared->masks_;
  masks = PremiseMasks::Compile(premises);
  rewrite::SimplifyStats sstats;
  rewrite::SimplifyInPlace(&masks, rewrite::SimplifyOptions(), &sstats);
  stats.rewrite_passes = sstats.passes;
  stats.rewrite_applied = sstats.applied_total;
  stats.rewrite_reached_fixpoint = sstats.reached_fixpoint;
  stats.rewrite_steps = sstats.steps;
  stats.cost_constraints_before = sstats.before.constraints;
  stats.cost_members_before = sstats.before.members;
  stats.cost_items_before = sstats.before.member_items;
  stats.cost_constraints_after = sstats.after.constraints;
  stats.cost_members_after = sstats.after.members;
  stats.cost_items_after = sstats.after.member_items;
  stats.rewrite_rule_applied = std::move(sstats.applied_by_rule);
  for (const auto& [rule, edits] : stats.rewrite_rule_applied) {
    if (rule == "drop-trivial") stats.dropped_trivial = edits;
    if (rule == "minimize-rhs") stats.minimized_members = edits;
    if (rule == "absorb-subsumed") stats.dropped_duplicates = edits;
    if (rule == "merge-same-lhs") stats.merged_constraints = edits;
    if (rule == "narrow-members") stats.narrowed_items = edits;
  }
  stats.canonical_constraints = masks.size();
  stats.canonicalize_ns = NowNs() - start;

  const std::uint64_t fd_start = NowNs();
  prepared->fd_index_ = BuildFdPremiseIndex(masks);
  stats.fd_eligible = prepared->fd_index_.eligible;
  stats.fd_index_ns = NowNs() - fd_start;

  stats.total_ns = NowNs() - start;
  if (obs::MetricsEnabled()) {
    PrepareMetrics& m = Metrics();
    m.builds->Inc();
    const std::uint64_t dropped =
        stats.dropped_trivial + stats.dropped_duplicates + stats.merged_constraints;
    if (dropped > 0) m.dropped_premises->Inc(dropped);
    m.build_seconds->Observe(stats.total_ns / 1e9);
  }
  return std::shared_ptr<const PreparedPremises>(std::move(prepared));
}

}  // namespace diffc
