// The traced run. The benchmark replays each generated CHECK_BATCH through
// the public function of every layer it crosses in the server — codecs,
// nonce cache, admission, engine, planner, plan execution, prepare,
// rewrite, translate and the handle table — and records a span around each
// call. Plan execution adds the engine's own step spans. The spans live in
// memory and are written out at the end; a layer's figure is its spans'
// self time. Each batch is replayed twice, once with spans and once without (in
// alternating order), which gives the tracing overhead. The real client
// round trip of the same batch is timed beside the replay, so the part of
// it no layer accounts for shows as `unattributed.us`.

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/implication.h"
#include "engine/caches.h"
#include "engine/planner.h"
#include "engine/prepared_premises.h"
#include "engine/procedures/procedure.h"
#include "obs/trace.h"
#include "rewrite/simplifier.h"
#include "util/deadline.h"

namespace loadbench {
namespace {

using diffc::DecisionProcedure;
using diffc::PreparedPremises;
using diffc::Result;
using diffc::net::BatchResultMsg;
using diffc::net::CheckBatchMsg;
using diffc::net::Frame;

// Handle-table owner of replayed registrations; server session ids count
// up from 1 and never reach it.
constexpr std::uint64_t kReplayOwner = ~std::uint64_t{0};
// Nonces of replayed batches; the clients draw theirs at random.
constexpr std::uint64_t kReplayNonceBase = 0x6c6f616462656e63ULL;
// Spans written to the span file (the in-memory record is complete).
constexpr std::size_t kMaxWrittenSpans = 200000;

constexpr DecisionProcedure kProcedures[] = {
    DecisionProcedure::kTrivial, DecisionProcedure::kFdSubclass,
    DecisionProcedure::kIntervalCover, DecisionProcedure::kSat, DecisionProcedure::kExhaustive};

// The server's reply for `outcome`, built the way its CHECK_BATCH handler
// builds it.
BatchResultMsg ToReply(const diffc::BatchOutcome& outcome) {
  BatchResultMsg reply;
  reply.results.reserve(outcome.results.size());
  for (const diffc::EngineQueryResult& r : outcome.results) {
    diffc::net::WireQueryResult q;
    q.status_code = r.status.code();
    q.status_message = r.status.message();
    q.verdict = static_cast<std::uint8_t>(r.outcome.verdict);
    if (r.outcome.counterexample.has_value()) {
      q.has_counterexample = true;
      q.counterexample = r.outcome.counterexample->bits();
    }
    reply.results.push_back(std::move(q));
  }
  const diffc::BatchStats& s = outcome.stats;
  reply.stats.queries = s.queries;
  reply.stats.implied = s.implied;
  reply.stats.not_implied = s.not_implied;
  reply.stats.failed = s.failed;
  reply.stats.degraded = s.degraded;
  reply.stats.timed_out = s.timed_out;
  reply.stats.cancelled = s.cancelled;
  reply.stats.batch_wall_ns = s.batch_wall_ns;
  return reply;
}

// Counts gathered on traced replays only, so they pair with the spans.
struct LayerCounts {
  std::uint64_t batches = 0;
  std::uint64_t goals = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  // Indexed by DecisionProcedure.
  static constexpr std::size_t kSlots = static_cast<std::size_t>(DecisionProcedure::kExhaustive) + 1;
  std::array<std::uint64_t, kSlots> attempts{};
  std::array<std::uint64_t, kSlots> conclusive{};
  std::uint64_t witness_used = 0;
  std::uint64_t witness_hits = 0;
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t members_before = 0;
  std::uint64_t members_after = 0;
};

std::size_t Slot(DecisionProcedure p) { return static_cast<std::size_t>(p); }

class LayerReplay {
 public:
  LayerReplay(const Workload& w, diffc::net::DiffcdServer* server, SpanRecorder* rec)
      : w_(w),
        server_(server),
        rec_(rec),
        planner_(diffc::ProcedureRegistry::Global().Snapshot()),
        verifier_(w) {}

  // Replays batch `b`; spans and counts are taken when `traced`.
  void Run(std::size_t b, bool traced, RunCounters* rc) {
    rec_->set_enabled(traced);
    const Batch& batch = w_.batches[b];
    ScopedSpan root(rec_, "replay");
    std::shared_ptr<const PreparedPremises> prepared = Prepare(w_.sets[batch.set], traced, rc);
    if (prepared != nullptr) {
      BatchPath(b, prepared, traced, rc);
      CheckOnes(batch, prepared);
      Dispatch(batch, *prepared, traced, rc);
    }
    rec_->set_enabled(false);
  }

  const LayerCounts& counts() const { return counts_; }

 private:
  // The REGISTER_PREMISES side: a cold `PreparedPremises::Build`, the
  // rewrite and translation stages on their own, and a handle-table
  // register/release of the artifact.
  std::shared_ptr<const PreparedPremises> Prepare(const ConstraintSet& set, bool traced,
                                                  RunCounters* rc) {
    Result<std::shared_ptr<const PreparedPremises>> prepared = [&] {
      ScopedSpan s(rec_, "prepare");
      return PreparedPremises::Build(w_.n, set);
    }();
    if (!prepared.ok()) {
      rc->Fail("PreparedPremises::Build: " + prepared.status().ToString());
      return nullptr;
    }
    diffc::rewrite::SimplifyStats stats;
    ConstraintSet simplified = [&] {
      ScopedSpan s(rec_, "rewrite");
      return diffc::rewrite::Simplify(w_.n, set, diffc::rewrite::SimplifyOptions{}, &stats);
    }();
    diffc::PremiseTranslation translation = [&] {
      ScopedSpan s(rec_, "translate");
      return diffc::TranslatePremises(w_.n, simplified);
    }();
    {
      ScopedSpan s(rec_, "handle-register");
      Result<std::uint64_t> handle = server_->handles().Register(kReplayOwner, *prepared);
      if (handle.ok()) {
        (void)server_->handles().Release(*handle, kReplayOwner);
      } else {
        rc->Fail("PreparedHandleTable::Register: " + handle.status().ToString());
      }
    }
    if (traced) {
      counts_.members_before += stats.before.members;
      counts_.members_after += stats.after.members;
    }
    return *std::move(prepared);
  }

  // The CHECK_BATCH path, in the server's order: client encode, decode,
  // nonce claim, admission, engine execution, reply encode, nonce publish,
  // client decode. The decoded reply is verified like a real one.
  void BatchPath(std::size_t b, const std::shared_ptr<const PreparedPremises>& prepared,
                 bool traced, RunCounters* rc) {
    CheckBatchMsg msg;
    msg.handle = 1;
    msg.nonce = kReplayNonceBase + next_nonce_++;
    msg.n = w_.n;
    msg.goals = w_.batches[b].goals;
    const Frame request = [&] {
      ScopedSpan s(rec_, "client-encode");
      return diffc::net::EncodeCheckBatch(msg);
    }();
    Result<CheckBatchMsg> decoded = [&] {
      ScopedSpan s(rec_, "decode");
      return diffc::net::DecodeCheckBatch(request);
    }();
    if (!decoded.ok()) {
      rc->Fail("DecodeCheckBatch: " + decoded.status().ToString());
      return;
    }
    diffc::net::NonceCache& nonces = server_->nonces();
    {
      ScopedSpan s(rec_, "nonce-lookup");
      (void)nonces.Begin(msg.nonce);
    }
    Result<diffc::net::AdmissionController::Slot> slot = [&] {
      ScopedSpan s(rec_, "admission");
      return server_->admission().Admit();
    }();
    if (!slot.ok()) {
      nonces.Abandon(msg.nonce);
      rc->Fail("AdmissionController::Admit: " + slot.status().ToString());
      return;
    }
    Result<diffc::BatchOutcome> outcome = [&] {
      ScopedSpan s(rec_, "execute");
      return server_->engine().CheckBatch(prepared, decoded->goals, diffc::Deadline::Never(),
                                          diffc::CancelToken());
    }();
    {
      ScopedSpan s(rec_, "admission");
      slot->Reset();
    }
    if (!outcome.ok()) {
      nonces.Abandon(msg.nonce);
      rc->Fail("ImplicationEngine::CheckBatch: " + outcome.status().ToString());
      return;
    }
    const Frame reply = [&] {
      ScopedSpan s(rec_, "encode");
      return diffc::net::EncodeBatchResult(ToReply(*outcome));
    }();
    {
      ScopedSpan s(rec_, "nonce-lookup");
      nonces.Complete(msg.nonce, reply);
    }
    Result<BatchResultMsg> got = [&] {
      ScopedSpan s(rec_, "client-decode");
      return diffc::net::DecodeBatchResult(reply);
    }();
    if (!got.ok()) {
      rc->Fail("DecodeBatchResult: " + got.status().ToString());
      return;
    }
    std::string why;
    if (!verifier_.Check(b, *got, &why)) rc->Mismatch(w_.name + " replay " + why);
    if (traced) {
      ++counts_.batches;
      counts_.goals += msg.goals.size();
      counts_.request_bytes += diffc::net::kFrameHeaderBytes + request.payload.size();
      counts_.reply_bytes += diffc::net::kFrameHeaderBytes + reply.payload.size();
    }
  }

  // The same goals one `CheckOne` at a time: the engine's work without the
  // worker-pool handoff.
  void CheckOnes(const Batch& batch, const std::shared_ptr<const PreparedPremises>& prepared) {
    for (const DifferentialConstraint& g : batch.goals) {
      ScopedSpan s(rec_, "check-one");
      (void)server_->engine().CheckOne(prepared, g);
    }
  }

  // Per goal: the planner's plan, then the engine's own `ExecutePlan`
  // with a tracer. Its step spans (one per executed step, named by
  // procedure) are grafted into the recorder; the conclusive procedure and
  // the witness-cache and solver counts come from the query's `QueryStats`.
  void Dispatch(const Batch& batch, const PreparedPremises& prepared, bool traced,
                RunCounters* rc) {
    const diffc::EngineOptions& options = server_->engine().options();
    const diffc::ProcedureBudgets budgets{options.max_solver_decisions,
                                          options.witness_max_results};
    for (const DifferentialConstraint& g : batch.goals) {
      const diffc::ProcedureQuery query{w_.n, &g};
      const diffc::QueryPlan plan = [&] {
        ScopedSpan s(rec_, "plan");
        return planner_.Plan(prepared, query, options);
      }();
      diffc::StopCheck stop(diffc::Deadline::Never(), diffc::CancelToken(),
                            options.stop_check_stride);
      diffc::obs::Tracer tracer(traced);
      const std::uint64_t anchor_ns = NowNs();
      diffc::QueryStats stats;
      diffc::ProcedureContext ctx{&options, budgets, &stop, &tracer, &stats, true};
      const diffc::PlanOutcome out = diffc::ExecutePlan(plan, prepared, query, &ctx);
      if (!out.status.ok()) rc->Fail("ExecutePlan: " + out.status.ToString());
      if (!traced) continue;
      const diffc::obs::TraceRecord record = tracer.Finish();
      rec_->Graft(record, anchor_ns);
      for (const diffc::obs::TraceSpan& span : record.spans) {
        if (span.parent >= 0) continue;
        for (DecisionProcedure p : kProcedures) {
          if (span.name == diffc::DecisionProcedureName(p)) ++counts_.attempts[Slot(p)];
        }
      }
      if (stats.procedure != DecisionProcedure::kNone) {
        ++counts_.conclusive[Slot(stats.procedure)];
      }
      if (stats.witness_cache_used) {
        ++counts_.witness_used;
        if (stats.witness_cache_hit) ++counts_.witness_hits;
      }
      counts_.sat_decisions += stats.solver.decisions;
      counts_.sat_propagations += stats.solver.propagations;
    }
  }

  const Workload& w_;
  diffc::net::DiffcdServer* server_;
  SpanRecorder* rec_;
  diffc::QueryPlanner planner_;
  Verifier verifier_;
  std::uint64_t next_nonce_ = 0;
  LayerCounts counts_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int SpanRecorder::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

void SpanRecorder::Graft(const diffc::obs::TraceRecord& record, std::uint64_t anchor_ns) {
  const int base = static_cast<int>(spans_.size());
  const int root = open_.empty() ? -1 : open_.back();
  for (const diffc::obs::TraceSpan& t : record.spans) {
    auto name = grafted_names_.find(std::string_view(t.name));
    if (name == grafted_names_.end()) name = grafted_names_.insert(t.name).first;
    Span s;
    s.name = name->c_str();
    s.parent = t.parent < 0 ? root : base + t.parent;
    s.start_ns = anchor_ns + t.start_ns;
    s.end_ns = s.start_ns + t.duration_ns;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanRecorder::Self> SpanRecorder::SelfTimes() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Self> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Self& self = out[spans_[i].name];
    self.ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i];
    ++self.count;
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path, std::size_t max_spans) const {
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\n";
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<Metric> RunTraced(const Workload& w, std::uint64_t seed, double seconds,
                              const std::string& spans_path, RunCounters* rc) {
  Rig rig;
  if (diffc::Status s = StartRig(w, seed, &rig, rc); !s.ok()) {
    rc->Fail("set-up: " + s.ToString());
    return {};
  }
  diffc::net::DiffcClient& client = rig.clients[0];
  SpanRecorder rec;
  LayerReplay replay(w, rig.server.get(), &rec);
  Verifier verifier(w);
  const diffc::net::ClientStats client_before = client.stats();
  const diffc::CacheCounters cache_before = diffc::GlobalPreparedPremisesCache().counters();

  std::vector<double> ping_us;
  std::vector<double> round_trip_us;
  double traced_ns = 0;
  double untraced_ns = 0;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t k = 0; NowNs() < deadline; ++k) {
    const std::size_t b = k % w.measured;
    ++rc->attempted;
    std::uint64_t start = NowNs();
    Result<std::uint64_t> pong = client.Ping(k);
    if (pong.ok()) {
      ping_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    } else {
      rc->Fail("PING: " + pong.status().ToString());
    }
    double rt = -1;
    if (w.churn) {
      rt = ChurnCycle(w, b, &client, &verifier, rc).batch_us;
    } else {
      rt = TimedCheck(w, b, &client, rig.handles[0][w.batches[b].set], &verifier, rc);
      // A registration of an already-prepared set: the prepared-cache path.
      TimedRegisterRelease(w, w.sets[w.batches[b].set], &client, rc);
    }
    if (rt >= 0) round_trip_us.push_back(rt);
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (k % 2 == 0);
      start = NowNs();
      replay.Run(b, traced, rc);
      (traced ? traced_ns : untraced_ns) += static_cast<double>(NowNs() - start);
    }
  }
  const diffc::net::ClientStats client_after = client.stats();
  const diffc::CacheCounters cache_after = diffc::GlobalPreparedPremisesCache().counters();
  rig.Stop();

  const LayerCounts& c = replay.counts();
  const std::map<std::string, SpanRecorder::Self> self = rec.SelfTimes();
  auto self_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.ns / 1e3;
  };
  const double batches = static_cast<double>(c.batches);
  const double goals = static_cast<double>(c.goals);
  auto per_batch = [&](const char* name) { return Ratio(self_us(name), batches); };
  auto per_span = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Ratio(it->second.ns / 1e3, it->second.count);
  };

  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  add("ping.p50_us", Percentile(&ping_us, 0.5), "us");
  double layers_us = 0;
  for (const char* layer : {"client-encode", "decode", "nonce-lookup", "admission", "execute",
                            "encode", "client-decode"}) {
    add(std::string(layer) + ".us", per_batch(layer), "us");
    layers_us += per_batch(layer);
  }
  add("wire.request_bytes", Ratio(static_cast<double>(c.request_bytes), batches), "bytes");
  add("wire.reply_bytes", Ratio(static_cast<double>(c.reply_bytes), batches), "bytes");
  add("client.retries", static_cast<double>(client_after.retries - client_before.retries),
      "count");
  add("client.shed_backoffs",
      static_cast<double>(client_after.shed_backoffs - client_before.shed_backoffs), "count");
  add("client.reconnects",
      static_cast<double>(client_after.reconnects - client_before.reconnects), "count");
  add("execute.sum_check_one_us", per_batch("check-one"), "us");
  add("pool-handoff.us", per_batch("execute") - per_batch("check-one"), "us");
  add("plan.us", per_batch("plan"), "us");
  for (DecisionProcedure p : kProcedures) {
    const std::string name = diffc::DecisionProcedureName(p);
    const auto attempts = static_cast<double>(c.attempts[Slot(p)]);
    const auto conclusive = static_cast<double>(c.conclusive[Slot(p)]);
    add(name + ".attempts", Ratio(attempts, goals), "per_goal");
    add(name + ".conclusive", Ratio(conclusive, goals), "per_goal");
    add(name + ".us", Ratio(self_us(name.c_str()), attempts), "us");
  }
  const auto sat_attempts = static_cast<double>(c.attempts[Slot(DecisionProcedure::kSat)]);
  add("witness-cache-probe.us", per_span("witness-cache-probe"), "us");
  add("witness-cache-probe.hit_ratio",
      Ratio(static_cast<double>(c.witness_hits), static_cast<double>(c.witness_used)), "ratio");
  add("sat.decisions_per_query", Ratio(static_cast<double>(c.sat_decisions), sat_attempts),
      "count");
  add("sat.propagations_per_query",
      Ratio(static_cast<double>(c.sat_propagations), sat_attempts), "count");
  add("prepare.us", per_batch("prepare"), "us");
  add("rewrite.us", per_batch("rewrite"), "us");
  add("translate.us", per_batch("translate"), "us");
  add("rewrite.members_before", Ratio(static_cast<double>(c.members_before), batches), "count");
  add("rewrite.members_after", Ratio(static_cast<double>(c.members_after), batches), "count");
  add("prepare.cache_hit_ratio",
      Ratio(static_cast<double>(cache_after.hits - cache_before.hits),
            static_cast<double>(cache_after.hits + cache_after.misses - cache_before.hits -
                                cache_before.misses)),
      "ratio");
  add("handle-register.us", per_batch("handle-register"), "us");
  double round_trip_mean = 0;
  for (double v : round_trip_us) round_trip_mean += v;
  round_trip_mean = Ratio(round_trip_mean, static_cast<double>(round_trip_us.size()));
  add("unattributed.us", round_trip_mean - layers_us, "us");
  add("trace.overhead_pct", (Ratio(traced_ns, untraced_ns) - 1.0) * 100.0, "%");
  add("fail_ratio",
      Ratio(static_cast<double>(rc->failed), static_cast<double>(rc->attempted)), "ratio");

  std::printf("traced: %llu batches replayed with spans, %zu spans, %zu client round trips\n",
              static_cast<unsigned long long>(c.batches), rec.spans().size(),
              round_trip_us.size());
  if (!spans_path.empty() && !rec.WriteTsv(spans_path, kMaxWrittenSpans)) {
    std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
  }
  return out;
}

}  // namespace loadbench
