// Experiment E8 — request-tracing overhead on the diffcd loopback path:
// the same CHECK_BATCH workload through an in-process server + client pair
// at three head-sampling rates:
//
//   off      — trace_sample_rate = 0 on both ends: the tracing fast path
//              (one branch, no span allocation) — the baseline.
//   default  — 0.01, the shipped default: ~1% of calls record full span
//              trees into the trace store.
//   full     — 1.0: every call traced client- and server-side, engine
//              spans grafted, stores written.
//
// The three pairs run side by side in interleaved trials (see
// RunTracingExperiment); each row reports its median trial, and each
// overhead is the median over trials of that trial's ratio to off, so a
// host slowdown spanning some trials cancels out of it. The headline
// number is the default-rate overhead over off (the acceptance bar is
// <= 2%, encoded in bench/BENCH_E8.schema.json and checked in CI); the
// full row bounds the worst case an operator can dial in. Results land in
// BENCH_E8.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace_store.h"
#include "util/random.h"

namespace diffc {
namespace {

// The E8 workload: a small premise set and cheap goal batches, so the
// wire + dispatch + tracing path dominates over engine time — the regime
// where per-request tracing overhead is most visible.
void MakeWorkload(int n, ConstraintSet* premises,
                  std::vector<DifferentialConstraint>* goals) {
  Rng rng(20260809);
  premises->clear();
  for (int i = 0; i < 12; ++i) premises->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
  goals->clear();
  for (int i = 0; i < 8; ++i) goals->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// One server + client pair at a fixed sampling rate. All three pairs stay
// alive for the whole experiment, so every rate runs in the same process
// and machine state.
struct RatePair {
  double rate = 0;
  std::unique_ptr<net::DiffcdServer> server;
  std::optional<net::DiffcClient> client;
  std::uint64_t handle = 0;
  std::vector<double> trial_ms;  // one batch wall time per trial
  std::uint64_t implied = 0;     // verdict checksum across measured calls
  std::uint64_t stored = 0;      // traces added to the store in its trials
  bool failed = false;
};

Status StartPair(double rate, int n, const ConstraintSet& premises, RatePair* pair) {
  pair->rate = rate;
  net::ServerOptions sopts;
  sopts.listen_address = "127.0.0.1:0";
  sopts.trace_sample_rate = rate;
  pair->server = std::make_unique<net::DiffcdServer>(sopts);
  if (Status started = pair->server->Start(); !started.ok()) return started;
  net::ClientOptions copts;
  copts.seed = 20260809;
  copts.trace_sample_rate = rate;
  Result<net::DiffcClient> client =
      net::DiffcClient::Connect(pair->server->bound_address(), copts);
  if (!client.ok()) return client.status();
  pair->client.emplace(std::move(client).value());
  Result<net::RegisterOkMsg> reg = pair->client->RegisterPremises(n, premises);
  if (!reg.ok()) return reg.status();
  pair->handle = reg->handle;
  return Status::Ok();
}

// `calls` CHECK_BATCH round trips on `pair`; returns the implied count.
std::uint64_t RunCalls(RatePair* pair, int calls, int n,
                       const std::vector<DifferentialConstraint>& goals) {
  std::uint64_t implied = 0;
  for (int c = 0; c < calls && !pair->failed; ++c) {
    Result<net::BatchResultMsg> res = pair->client->CheckBatch(pair->handle, n, goals);
    if (!res.ok()) {
      pair->failed = true;
      break;
    }
    implied += res->stats.implied;
  }
  return implied;
}

void RunTracingExperiment() {
  const int n = 16;
  const int kCalls = 100;
  const int kTrials = 101;
  std::printf("=== E8: tracing overhead on the loopback CHECK_BATCH path "
              "(n=%d, %d calls/trial, median of %d interleaved trials) ===\n",
              n, kCalls, kTrials);
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);

  // off, default, full. Trials interleave them — trial t runs the pairs in
  // the order rotated by t — after one warm-up pass each, so machine drift
  // and warm-up land on every rate alike instead of on whichever ran first.
  std::vector<RatePair> pairs(3);
  const double rates[3] = {0.0, 0.01, 1.0};
  for (int p = 0; p < 3; ++p) {
    if (Status s = StartPair(rates[p], n, premises, &pairs[p]); !s.ok()) {
      std::fprintf(stderr, "E8 set-up failed at rate %.2f: %s\n", rates[p],
                   s.ToString().c_str());
      return;
    }
    RunCalls(&pairs[p], kCalls, n, goals);
  }
  for (int t = 0; t < kTrials; ++t) {
    for (int i = 0; i < 3; ++i) {
      RatePair& pair = pairs[(t + i) % 3];
      const std::uint64_t stored_before = obs::GlobalTraceStore().total();
      pair.trial_ms.push_back(
          bench::MeasureMs([&] { pair.implied += RunCalls(&pair, kCalls, n, goals); }));
      pair.stored += obs::GlobalTraceStore().total() - stored_before;
    }
  }
  for (RatePair& pair : pairs) (void)pair.server->Shutdown();  // Best effort.
  for (const RatePair& pair : pairs) {
    if (pair.failed) {
      std::fprintf(stderr, "CHECK_BATCH failed at rate %.2f; no BENCH_E8.json written\n",
                   pair.rate);
      return;
    }
  }
  const RatePair& off = pairs[0];
  const RatePair& def = pairs[1];
  const RatePair& full = pairs[2];
  const double off_ms = Median(off.trial_ms);
  const double def_ms = Median(def.trial_ms);
  const double full_ms = Median(full.trial_ms);
  // The three runs of one trial are adjacent in time; compare within it.
  auto overhead_pct = [&](const RatePair& pair) {
    std::vector<double> ratios;
    for (int t = 0; t < kTrials; ++t) ratios.push_back(pair.trial_ms[t] / off.trial_ms[t]);
    return (Median(std::move(ratios)) - 1.0) * 100.0;
  };
  const double overhead_default_pct = overhead_pct(def);
  const double overhead_full_pct = overhead_pct(full);
  const bool verdicts_agree = off.implied == def.implied && off.implied == full.implied;
  std::printf("%10s %12s %12s %10s\n", "rate", "batch(ms)", "overhead", "stored");
  std::printf("%10s %12.3f %12s %10llu\n", "0.00", off_ms, "-",
              static_cast<unsigned long long>(off.stored));
  std::printf("%10s %12.3f %10.2f%% %10llu\n", "0.01", def_ms, overhead_default_pct,
              static_cast<unsigned long long>(def.stored));
  std::printf("%10s %12.3f %10.2f%% %10llu\n", "1.00", full_ms, overhead_full_pct,
              static_cast<unsigned long long>(full.stored));
  std::printf("verdicts agree across rates: %s\n", verdicts_agree ? "yes" : "NO");

  // Machine-readable record, shape-checked against BENCH_E8.schema.json
  // (which pins overhead_default_pct <= 2).
  std::ofstream json("BENCH_E8.json");
  json << "{\n";
  json << "  \"experiment\": \"E8\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"calls_per_trial\": " << kCalls << ",\n";
  json << "  \"goals_per_call\": " << goals.size() << ",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"off_ms\": " << off_ms << ",\n";
  json << "  \"default_ms\": " << def_ms << ",\n";
  json << "  \"full_ms\": " << full_ms << ",\n";
  json << "  \"default_sample_rate\": 0.01,\n";
  json << "  \"overhead_default_pct\": " << overhead_default_pct << ",\n";
  json << "  \"overhead_full_pct\": " << overhead_full_pct << ",\n";
  json << "  \"traces_stored_full\": " << full.stored << ",\n";
  json << "  \"verdicts_agree\": " << (verdicts_agree ? "true" : "false") << "\n";
  json << "}\n";
  std::printf("wrote BENCH_E8.json\n\n");
}

void BM_CheckBatchLoopback(benchmark::State& state) {
  const int n = 16;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);
  net::ServerOptions sopts;
  sopts.listen_address = "127.0.0.1:0";
  sopts.trace_sample_rate = state.range(0) / 100.0;
  net::DiffcdServer server(sopts);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  net::ClientOptions copts;
  copts.seed = 20260809;
  copts.trace_sample_rate = state.range(0) / 100.0;
  Result<net::DiffcClient> client =
      net::DiffcClient::Connect(server.bound_address(), copts);
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Result<net::RegisterOkMsg> reg = client->RegisterPremises(n, premises);
  if (!reg.ok()) {
    state.SkipWithError("register failed");
    return;
  }
  for (auto _ : state) {
    Result<net::BatchResultMsg> res = client->CheckBatch(reg->handle, n, goals);
    if (!res.ok()) {
      state.SkipWithError("CHECK_BATCH failed");
      return;
    }
    benchmark::DoNotOptimize(res->stats.implied);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int>(goals.size()));
}
BENCHMARK(BM_CheckBatchLoopback)->Arg(0)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  // Fast path for CI schema validation: only the E8 table.
  if (std::getenv("DIFFC_BENCH_E8_ONLY") != nullptr) {
    diffc::RunTracingExperiment();
    return 0;
  }
  diffc::RunTracingExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
