#include "engine/prepared_premises.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

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
                     "Premises removed by canonicalization (trivial or subsumed).");
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
  return Build(n, PremiseMasks::Compile(premises));
}

Result<std::shared_ptr<const PreparedPremises>> PreparedPremises::Build(int n,
                                                                       PremiseMasks premises) {
  if (Status s = CheckInUniverse(n, premises); !s.ok()) return s;
  static std::atomic<std::uint64_t> next_id{1};

  auto prepared = std::shared_ptr<PreparedPremises>(new PreparedPremises());
  prepared->n_ = n;
  prepared->id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  PrepareStats& stats = prepared->stats_;
  const std::uint64_t start = NowNs();

  // Canonicalize in place through the rule-driven rewrite simplifier
  // (DESIGN.md §14): every rule preserves L(C) exactly, so verdicts against
  // the artifact are valid against the original set.
  PremiseMasks& masks = prepared->masks_;
  masks = std::move(premises);
  rewrite::SimplifyInPlace(&masks, &stats.rewrite);
  stats.canonicalize_ns = NowNs() - start;

  const std::uint64_t fd_start = NowNs();
  prepared->fd_index_ = BuildFdPremiseIndex(masks);
  stats.fd_index_ns = NowNs() - fd_start;

  stats.total_ns = NowNs() - start;
  PrepareMetrics& m = Metrics();
  m.builds->Inc();
  const rewrite::SimplifyStats& rs = stats.rewrite;
  const std::uint64_t dropped = rs.before.constraints - rs.after.constraints;
  if (dropped > 0) m.dropped_premises->Inc(dropped);
  m.build_seconds->Observe(stats.total_ns / 1e9);
  return std::shared_ptr<const PreparedPremises>(std::move(prepared));
}

}  // namespace diffc
