// Shared declarations of the diffcd load benchmark: seeded workloads, the
// reply verifier, the in-memory span recorder, and the two run modes
// (untraced closed loop, traced per-layer replay).

#ifndef LOADBENCH_BENCH_H_
#define LOADBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/constraint.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/status.h"

namespace loadbench {

using diffc::ConstraintSet;
using diffc::DifferentialConstraint;

// One CHECK_BATCH of a workload: the premise set it runs against, its
// goals, and each goal's reference verdict from core `CheckImplication`.
struct Batch {
  std::size_t set = 0;
  std::vector<DifferentialConstraint> goals;
  std::vector<bool> implied;
};

// A generated workload. Non-churn workloads register every set once per
// client during set-up and then stream `batches`; churn registers
// `sets[i]`, checks `batches[i]` against it and releases it, per cycle.
// Measured loops cycle over the first `measured` batches; churn set-up
// warms up on the rest, so no measured set is prepared before the loop.
struct Workload {
  std::string name;
  int n = 0;
  int clients = 1;
  bool churn = false;
  std::vector<ConstraintSet> sets;
  std::vector<Batch> batches;
  std::size_t measured = 0;
  // Non-churn: fresh sets of the workload's shape for the timed
  // REGISTER_PREMISES probes, more than the prepared-premises cache holds,
  // so that every probe prepares its set from scratch.
  std::vector<ConstraintSet> probe_sets;
};

// Generates `name` from `seed` and computes every reference verdict.
// InvalidArgument for an unknown name.
diffc::Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

// Checks replies against the reference verdicts. A not-implied reply's
// counterexample U must satisfy U ⊇ X, no goal member ⊆ U, and
// U ∉ L(C) for the original (uncanonicalized) premise set C. Verified
// counterexamples are remembered per goal, so an identical repeat costs one
// comparison. One instance per client thread.
class Verifier {
 public:
  explicit Verifier(const Workload& w);

  // True when every result matches; otherwise `why` names the first
  // mismatch.
  bool Check(std::size_t batch, const diffc::net::BatchResultMsg& reply, std::string* why);

 private:
  const Workload& w_;
  std::vector<std::vector<std::uint64_t>> verified_cx_;
};

// Operation counters of one run.
struct RunCounters {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_problem;

  void Fail(const std::string& what);
  void Mismatch(const std::string& what);
  void Add(const RunCounters& o);
};

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// A started in-process diffcd server (shipped default options) with its
// connected clients; `handles[c][s]` is client c's handle for set s
// (empty on churn).
struct Rig {
  std::unique_ptr<diffc::net::DiffcdServer> server;
  std::vector<diffc::net::DiffcClient> clients;
  std::vector<std::vector<std::uint64_t>> handles;

  void Stop();
};

// Set-up: clears the process-wide engine caches, starts the server,
// connects the clients, registers the sets and warms up with one pass over
// the batches (a fixed number of cycles on churn). Replies are verified.
diffc::Status StartRig(const Workload& w, std::uint64_t seed, Rig* rig, RunCounters* rc);

// One client-timed CHECK_BATCH round trip of batch `b`, verified. Returns
// the round trip in microseconds, or a negative value when it failed or
// its reply did not verify.
double TimedCheck(const Workload& w, std::size_t b, diffc::net::DiffcClient* client,
                  std::uint64_t handle, Verifier* verifier, RunCounters* rc);

// REGISTER_PREMISES of `set`, then RELEASE of the handle. Returns the
// register round trip in microseconds, or a negative value when it failed.
double TimedRegisterRelease(const Workload& w, const ConstraintSet& set,
                            diffc::net::DiffcClient* client, RunCounters* rc);

// One churn cycle over set `i`: REGISTER_PREMISES, the set's CHECK_BATCH,
// RELEASE. Negative times mark failed steps.
struct CycleTimes {
  double register_us = -1;
  double batch_us = -1;
};
CycleTimes ChurnCycle(const Workload& w, std::size_t i, diffc::net::DiffcClient* client,
                      Verifier* verifier, RunCounters* rc);

// The untraced closed loop: end-to-end metrics.
std::vector<Metric> RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds,
                                RunCounters* rc);

// The traced run: per-layer metrics. Spans are written to `spans_path`
// when it is non-empty.
std::vector<Metric> RunTraced(const Workload& w, std::uint64_t seed, double seconds,
                              const std::string& spans_path, RunCounters* rc);

// ---------------------------------------------------------------- helpers

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// A fixed amount of CPU work.
void Spin(int iterations);

// Moves every thread of the process onto the one allowed CPU that runs a
// short spin fastest right now, i.e. the one other processes on a shared
// host load least. Threads started later inherit the choice. The server,
// its worker pool and the clients thus share one CPU, so the figures do
// not swing with how many CPUs the host lends the run. Returns the CPU, or
// -1 when pinning failed.
int PinToQuietestCpu();

// Mean time of one pipe round trip between two threads of this process on
// its CPU: four system calls and two context switches, the kind of work a
// request/reply server does on every request. 0 when a pipe fails.
double PipeRoundTripNs(int rounds);

// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
double Percentile(std::vector<double>* v, double q);

// The tail quantile reported as "p99" over a run's pooled samples: 0.99,
// or the highest quantile that still has at least ten samples beyond it
// when there are fewer than 1000.
double TailQuantile(std::size_t samples);

// In-memory spans: name, start, end and parent, kept until the run ends.
// Disabled recorders take no clock readings.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Begin(const char* name);
  void End(int index);

  // Adds the spans of an engine `TraceRecord` whose tracer started at
  // `anchor_ns`; its root spans become children of the innermost open span.
  void Graft(const diffc::obs::TraceRecord& record, std::uint64_t anchor_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Total self time (span minus its direct children) per span name, in
  // nanoseconds, and the number of spans of that name.
  struct Self {
    double ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Self> SelfTimes() const;

  // Writes one "name<TAB>start_ns<TAB>end_ns<TAB>parent" line for each of
  // the first `max_spans` spans.
  bool WriteTsv(const std::string& path, std::size_t max_spans) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::set<std::string, std::less<>> grafted_names_;  // Owns grafted spans' names.
};

// RAII span on a recorder (no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec->enabled() ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace loadbench

#endif  // LOADBENCH_BENCH_H_
