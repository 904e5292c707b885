#include "util/failpoint.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/text.h"
#include "util/thread_annotations.h"

namespace diffc::failpoint {

namespace {

// Per-armed-point state. The rng is only advanced by probability triggers,
// so nth-hit / always points stay exactly deterministic.
struct PointState {
  Spec spec;
  std::uint64_t hits = 0;
  std::uint64_t trips = 0;
  std::mt19937_64 rng;
};

// Parses "hit(N)" / "after(N)" / "prob(P[,SEED])" arguments.
Result<Spec> ParseTrigger(std::string_view trigger) {
  std::string t(Trim(trigger));
  if (t == "always") return Spec::Always();
  auto call = [&](const char* fn) -> std::string {
    const std::string prefix = std::string(fn) + "(";
    if (t.rfind(prefix, 0) == 0 && t.back() == ')') {
      return t.substr(prefix.size(), t.size() - prefix.size() - 1);
    }
    return "";
  };
  try {
    if (std::string arg = call("hit"); !arg.empty()) {
      return Spec::NthHit(std::stoull(arg));
    }
    if (std::string arg = call("after"); !arg.empty()) {
      return Spec::AfterHit(std::stoull(arg));
    }
    if (std::string arg = call("prob"); !arg.empty()) {
      std::vector<std::string> parts = Split(arg, ',');
      if (parts.size() == 1) return Spec::Probability(std::stod(parts[0]));
      if (parts.size() == 2) {
        return Spec::Probability(std::stod(parts[0]),
                                 std::stoull(std::string(Trim(parts[1]))));
      }
    }
  } catch (...) {
    // Fall through to the error below.
  }
  return Status::InvalidArgument("bad failpoint trigger: " + t);
}

struct Registry {
  Mutex mu;
  std::unordered_map<std::string, PointState> points GUARDED_BY(mu);
  // Lock-free fast path: Evaluate() returns immediately while nothing is
  // armed, so a failpoint build running the regular test suite pays one
  // relaxed load per site.
  std::atomic<std::size_t> armed_count{0};

  Registry();
};

// The Into variants operate on an explicit registry so the constructor's
// env-var arming never re-enters GetRegistry() mid-initialization (that
// recursion deadlocks the function-local static's init guard).
void ArmInto(Registry& r, const std::string& name, const Spec& spec) {
  MutexLock lock(&r.mu);
  PointState state;
  state.spec = spec;
  state.rng.seed(spec.seed);
  r.points[name] = std::move(state);
  r.armed_count.store(r.points.size(), std::memory_order_release);
}

void DisarmInto(Registry& r, const std::string& name) {
  MutexLock lock(&r.mu);
  r.points.erase(name);
  r.armed_count.store(r.points.size(), std::memory_order_release);
}

Status ArmFromStringInto(Registry& r, const std::string& spec) {
  for (const std::string& raw : Split(spec, ';')) {
    std::string_view entry = Trim(raw);
    if (entry.empty()) continue;
    std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint entry without '=': " +
                                     std::string(entry));
    }
    std::string name(Trim(entry.substr(0, eq)));
    std::string_view trigger = Trim(entry.substr(eq + 1));
    if (name.empty()) {
      return Status::InvalidArgument("failpoint entry without a name");
    }
    if (trigger == "off") {
      DisarmInto(r, name);
      continue;
    }
    Result<Spec> parsed = ParseTrigger(trigger);
    if (!parsed.ok()) return parsed.status();
    ArmInto(r, name, *parsed);
  }
  return Status::Ok();
}

Registry::Registry() {
  // Env-var arming happens once, before the first evaluation or query.
  const char* env = std::getenv("DIFFC_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    Status s = ArmFromStringInto(*this, env);
    if (!s.ok()) {
      std::fprintf(stderr, "diffc: ignoring bad DIFFC_FAILPOINTS spec: %s\n",
                   s.ToString().c_str());
    }
  }
}

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

bool CompiledIn() {
#if defined(DIFFC_FAILPOINTS)
  return true;
#else
  return false;
#endif
}

void Arm(const std::string& name, const Spec& spec) {
  ArmInto(GetRegistry(), name, spec);
}

void Disarm(const std::string& name) { DisarmInto(GetRegistry(), name); }

void DisarmAll() {
  Registry& r = GetRegistry();
  MutexLock lock(&r.mu);
  r.points.clear();
  r.armed_count.store(0, std::memory_order_release);
}

std::uint64_t HitCount(const std::string& name) {
  Registry& r = GetRegistry();
  MutexLock lock(&r.mu);
  auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.hits;
}

std::uint64_t TripCount(const std::string& name) {
  Registry& r = GetRegistry();
  MutexLock lock(&r.mu);
  auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.trips;
}

bool Evaluate(const char* name) {
  Registry& r = GetRegistry();
  if (r.armed_count.load(std::memory_order_acquire) == 0) return false;
  bool fire = false;
  {
    MutexLock lock(&r.mu);
    auto it = r.points.find(name);
    if (it == r.points.end()) return false;
    PointState& p = it->second;
    ++p.hits;
    switch (p.spec.trigger) {
      case Spec::Trigger::kAlways:
        fire = true;
        break;
      case Spec::Trigger::kNthHit:
        fire = p.hits == p.spec.n;
        break;
      case Spec::Trigger::kAfterHit:
        fire = p.hits > p.spec.n;
        break;
      case Spec::Trigger::kProbability:
        fire = std::uniform_real_distribution<double>(0.0, 1.0)(p.rng) <
               p.spec.probability;
        break;
    }
    if (fire) ++p.trips;
  }
  // Observability outside the registry lock: a fired point is a rare,
  // test-only event, but the metrics registry takes its own mutex on first
  // lookup and must not nest under ours.
  if (fire) {
    obs::Registry::Global()
        .GetCounter("diffc_failpoint_fires_total", "Fail-point trips, by site.",
                    {{"site", name}})
        ->Inc();
  }
  return fire;
}

Status ArmFromString(const std::string& spec) {
  return ArmFromStringInto(GetRegistry(), spec);
}

}  // namespace diffc::failpoint
