// The untraced closed loop. Each client thread sends its next request only
// after the previous reply arrived (diffcd is strict request/reply per
// connection), so no arrival schedule is involved and a slower server
// simply receives less load.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/caches.h"

namespace loadbench {
namespace {

using diffc::net::BatchResultMsg;
using diffc::net::DiffcClient;

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;
// Measurement windows. The process moves to the quietest CPU before each
// window, and each windowed figure is the median over windows.
constexpr double kWindowSeconds = 0.5;
constexpr int kMinWindows = 4;

// Host correction. Other tenants of a shared host change how fast this
// process runs, by up to 1.5x for stretches of seconds to minutes. A spin
// loop barely notices; a pipe round trip between two threads slows in step
// with the program, whose every request crosses threads. So the benchmark
// times kHostProbeRounds pipe round trips before and after each window and
// each set-up, and scales that stretch's times by kReferenceRoundTripNs
// over their mean (and its rates by the inverse). The figures thus read as
// on a host whose pipe round trip takes 4 us. The uncorrected figures are
// printed beside them.
constexpr double kReferenceRoundTripNs = 4000;
constexpr int kHostProbeRounds = 1000;

// REGISTER_PREMISES round trips timed after each window on the non-churn
// workloads, each of a probe set the prepared-premises cache no longer
// holds. Cold, a registration is long enough that the p99 lies in the
// spread of the prepare work and not on the edge of the rare host
// interruptions, where it jumps between runs.
constexpr int kRegisterProbesPerWindow = 500;

double UsSince(std::uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e3; }

// The correction factor of a stretch that began with a pipe round trip of
// `before_ns`: probes again and returns kReferenceRoundTripNs over the
// mean, which is appended to `host_ns`. 0 when a probe failed.
double HostScale(double before_ns, std::vector<double>* host_ns) {
  const double after_ns = PipeRoundTripNs(kHostProbeRounds);
  if (before_ns <= 0 || after_ns <= 0) return 0;
  host_ns->push_back((before_ns + after_ns) / 2);
  return kReferenceRoundTripNs / host_ns->back();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

struct ClientResult {
  std::vector<double> batch_us;
  std::vector<double> register_us;
  std::uint64_t goals = 0;
  RunCounters rc;
};

// One client's closed loop until `deadline_ns`, continuing from `*next`.
// Clients start at different offsets so they do not move in step. Goals
// count as decided only when their batch got a verified reply.
void ClientLoop(const Workload& w, Rig* rig, std::size_t c, std::uint64_t deadline_ns,
                std::size_t* next, Verifier* verifier, ClientResult* out) {
  DiffcClient* client = &rig->clients[c];
  while (NowNs() < deadline_ns) {
    const std::size_t b = (*next)++ % w.measured;
    double batch_us = -1;
    if (w.churn) {
      CycleTimes t = ChurnCycle(w, b, client, verifier, &out->rc);
      if (t.register_us >= 0) out->register_us.push_back(t.register_us);
      batch_us = t.batch_us;
    } else {
      batch_us = TimedCheck(w, b, client, rig->handles[c][w.batches[b].set], verifier, &out->rc);
    }
    if (batch_us < 0) continue;
    out->batch_us.push_back(batch_us);
    out->goals += w.batches[b].goals.size();
  }
}

// One timing over the run, host-corrected: the p50 of each window, and
// every sample for the tail, which is taken over the whole run.
struct RunTimings {
  std::vector<double> window_p50;
  std::vector<double> raw_window_p50;
  std::vector<double> pooled;

  // Adds one window's samples, scaled by `scale`. False when it has none.
  bool AddWindow(std::vector<double>* us, double scale) {
    if (us->empty()) return false;
    raw_window_p50.push_back(Percentile(us, 0.5));
    window_p50.push_back(raw_window_p50.back() * scale);
    for (double v : *us) pooled.push_back(v * scale);
    return true;
  }

  void Report(const char* prefix, std::vector<Metric>* out) {
    const std::string name(prefix);
    const double q = TailQuantile(pooled.size());
    out->push_back({name + "_p50_us", Percentile(&window_p50, 0.5), "us"});
    out->push_back({name + "_p99_us", Percentile(&pooled, q), "us"});
    std::printf("samples: %s=%zu over %zu windows, tail quantile %.4f of the pooled samples; "
                "uncorrected p50 %.2f us; window p50s:",
                prefix, pooled.size(), window_p50.size(), q, Percentile(&raw_window_p50, 0.5));
    for (double v : window_p50) std::printf(" %.1f", v);
    std::printf("\n");
  }
};

}  // namespace

void Rig::Stop() {
  for (DiffcClient& c : clients) c.Close();
  clients.clear();
  handles.clear();
  if (server != nullptr) (void)server->Shutdown();
  server.reset();
}

double TimedCheck(const Workload& w, std::size_t b, DiffcClient* client, std::uint64_t handle,
                  Verifier* verifier, RunCounters* rc) {
  ++rc->attempted;
  const std::uint64_t start = NowNs();
  diffc::Result<BatchResultMsg> reply = client->CheckBatch(handle, w.n, w.batches[b].goals);
  const double us = UsSince(start);
  if (!reply.ok()) {
    rc->Fail("CHECK_BATCH: " + reply.status().ToString());
    return -1;
  }
  std::string why;
  if (!verifier->Check(b, *reply, &why)) {
    rc->Mismatch(w.name + " " + why);
    return -1;
  }
  return us;
}

double TimedRegisterRelease(const Workload& w, const ConstraintSet& set, DiffcClient* client,
                            RunCounters* rc) {
  ++rc->attempted;
  const std::uint64_t start = NowNs();
  diffc::Result<diffc::net::RegisterOkMsg> reg = client->RegisterPremises(w.n, set);
  if (!reg.ok()) {
    rc->Fail("REGISTER_PREMISES: " + reg.status().ToString());
    return -1;
  }
  const double us = UsSince(start);
  ++rc->attempted;
  if (diffc::Status released = client->Release(reg->handle); !released.ok()) {
    rc->Fail("RELEASE: " + released.ToString());
  }
  return us;
}

CycleTimes ChurnCycle(const Workload& w, std::size_t i, DiffcClient* client, Verifier* verifier,
                      RunCounters* rc) {
  CycleTimes t;
  ++rc->attempted;
  const std::uint64_t start = NowNs();
  diffc::Result<diffc::net::RegisterOkMsg> reg = client->RegisterPremises(w.n, w.sets[i]);
  if (!reg.ok()) {
    rc->Fail("REGISTER_PREMISES: " + reg.status().ToString());
    return t;
  }
  t.register_us = UsSince(start);
  t.batch_us = TimedCheck(w, i, client, reg->handle, verifier, rc);
  ++rc->attempted;
  diffc::Status released = client->Release(reg->handle);
  if (!released.ok()) rc->Fail("RELEASE: " + released.ToString());
  return t;
}

diffc::Status StartRig(const Workload& w, std::uint64_t seed, Rig* rig, RunCounters* rc) {
  diffc::GlobalWitnessSetCache().Clear();
  diffc::GlobalPreparedPremisesCache().Clear();
  rig->server = std::make_unique<diffc::net::DiffcdServer>(diffc::net::ServerOptions{});
  if (diffc::Status s = rig->server->Start(); !s.ok()) return s;
  for (int c = 0; c < w.clients; ++c) {
    diffc::net::ClientOptions options;
    options.seed = seed * 16 + static_cast<std::uint64_t>(c) + 1;
    diffc::Result<DiffcClient> client =
        DiffcClient::Connect(rig->server->bound_address(), options);
    if (!client.ok()) return client.status();
    rig->clients.push_back(std::move(*client));
  }
  rig->handles.assign(rig->clients.size(), {});
  Verifier verifier(w);
  if (w.churn) {
    for (std::size_t i = w.measured; i < w.batches.size(); ++i) {
      ChurnCycle(w, i, &rig->clients[0], &verifier, rc);
    }
    return diffc::Status::Ok();
  }
  for (std::size_t c = 0; c < rig->clients.size(); ++c) {
    for (const ConstraintSet& set : w.sets) {
      ++rc->attempted;
      diffc::Result<diffc::net::RegisterOkMsg> reg = rig->clients[c].RegisterPremises(w.n, set);
      if (!reg.ok()) return reg.status();
      rig->handles[c].push_back(reg->handle);
    }
  }
  for (std::size_t b = 0; b < w.batches.size(); ++b) {
    const std::size_t c = b % rig->clients.size();
    TimedCheck(w, b, &rig->clients[c], rig->handles[c][w.batches[b].set], &verifier, rc);
  }
  return diffc::Status::Ok();
}

std::vector<Metric> RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds,
                                RunCounters* rc) {
  Rig rig;
  std::vector<double> host_ns;
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  for (int k = 0; k < kSetups; ++k) {
    rig.Stop();
    const double probe_ns = PipeRoundTripNs(kHostProbeRounds);
    const std::uint64_t start = NowNs();
    if (diffc::Status s = StartRig(w, seed, &rig, rc); !s.ok()) {
      rc->Fail("set-up: " + s.ToString());
      return {};
    }
    raw_setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const double scale = HostScale(probe_ns, &host_ns);
    if (scale == 0) rc->Fail("pipe round-trip probe failed");
    setup_s.push_back(raw_setup_s.back() * scale);
  }

  RunTimings batch;
  RunTimings registration;
  std::vector<double> goals_per_s;
  std::vector<double> raw_goals_per_s;
  std::vector<std::size_t> next(rig.clients.size());
  std::vector<Verifier> verifiers;
  for (std::size_t c = 0; c < next.size(); ++c) {
    next[c] = c * w.measured / next.size();
    verifiers.emplace_back(w);
  }
  std::size_t probe = 0;
  const int windows = std::max(kMinWindows, static_cast<int>(seconds / kWindowSeconds + 0.5));
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9 / windows);
  for (int win = 0; win < windows; ++win) {
    PinToQuietestCpu();
    const double probe_ns = PipeRoundTripNs(kHostProbeRounds);
    std::vector<ClientResult> results(rig.clients.size());
    const std::uint64_t start = NowNs();
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < rig.clients.size(); ++c) {
        threads.emplace_back(ClientLoop, std::cref(w), &rig, c, start + window_ns, &next[c],
                             &verifiers[c], &results[c]);
      }
    }
    const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    std::vector<double> batch_us;
    std::vector<double> register_us;
    std::uint64_t goals = 0;
    for (ClientResult& r : results) {
      batch_us.insert(batch_us.end(), r.batch_us.begin(), r.batch_us.end());
      register_us.insert(register_us.end(), r.register_us.begin(), r.register_us.end());
      goals += r.goals;
      rc->Add(r.rc);
    }
    if (!w.churn) {
      for (int i = 0; i < kRegisterProbesPerWindow; ++i) {
        const ConstraintSet& set = w.probe_sets[probe++ % w.probe_sets.size()];
        const double us = TimedRegisterRelease(w, set, &rig.clients[0], rc);
        if (us >= 0) register_us.push_back(us);
      }
    }
    const double scale = HostScale(probe_ns, &host_ns);
    if (scale == 0) rc->Fail("pipe round-trip probe failed");
    raw_goals_per_s.push_back(static_cast<double>(goals) / elapsed_s);
    goals_per_s.push_back(scale > 0 ? raw_goals_per_s.back() / scale : 0);
    if (!batch.AddWindow(&batch_us, scale) || !registration.AddWindow(&register_us, scale)) {
      rc->Fail("window " + std::to_string(win) + " has no verified round trip");
    }
  }
  rig.Stop();

  std::vector<Metric> out;
  batch.Report("batch", &out);
  out.push_back({"goals_per_s", Percentile(&goals_per_s, 0.5), "1/s"});
  registration.Report("register", &out);
  out.push_back({"setup_s", Percentile(&setup_s, 0.5), "s"});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::printf("host correction: pipe round trip median %.0f ns (reference %.0f ns); uncorrected "
              "goals_per_s %.1f, setup_s %.5f\n",
              Percentile(&host_ns, 0.5), kReferenceRoundTripNs, Percentile(&raw_goals_per_s, 0.5),
              Percentile(&raw_setup_s, 0.5));
  return out;
}

}  // namespace loadbench
