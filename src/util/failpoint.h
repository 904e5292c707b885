#ifndef DIFFC_UTIL_FAILPOINT_H_
#define DIFFC_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace diffc::failpoint {

/// Fail points: named fault-injection sites wired into the library's
/// failure paths (witness enumeration, the engine caches, the `sat`
/// search, the Prop. 5.4 CNF translation, `Rational` arithmetic, basket
/// IO), so every `Status` error a production deployment might see can be
/// driven deterministically in tests.
///
/// A site is written as
///
///     if (DIFFC_FAILPOINT("witness/truncate")) {
///       return Status::ResourceExhausted("failpoint: ...");
///     }
///
/// The macro expands to a registry evaluation when the library is built
/// with the `DIFFC_FAILPOINTS` CMake option, and to the constant `false`
/// otherwise — release builds carry zero overhead and cannot be armed.
/// The registry API below is always compiled (tests of the trigger logic
/// run in every configuration); only the macro is gated.
///
/// Arming: call `Arm()` / `ArmFromString()` from tests, or set the
/// `DIFFC_FAILPOINTS` environment variable before the first evaluation,
/// e.g. `DIFFC_FAILPOINTS="witness/truncate=always;rational/overflow=hit(3)"`.
///
/// Thread-safe; a fired nth-hit trigger observed from several threads fires
/// exactly once.

/// When an armed fail point fires.
struct Spec {
  enum class Trigger {
    kAlways,       ///< Fires on every evaluation.
    kNthHit,       ///< Fires on exactly the `n`-th evaluation (1-based).
    kAfterHit,     ///< Fires on every evaluation after the first `n`.
    kProbability,  ///< Fires with probability `probability` (seeded).
  };

  Trigger trigger = Trigger::kAlways;
  std::uint64_t n = 0;
  double probability = 0.0;
  std::uint64_t seed = 0x5eedf01d;

  /// Fires on every evaluation.
  static Spec Always() { return Spec{}; }
  /// Fires on exactly the `n`-th evaluation (1-based), once.
  static Spec NthHit(std::uint64_t n) {
    Spec s;
    s.trigger = Trigger::kNthHit;
    s.n = n;
    return s;
  }
  /// Fires on every evaluation after the first `n`.
  static Spec AfterHit(std::uint64_t n) {
    Spec s;
    s.trigger = Trigger::kAfterHit;
    s.n = n;
    return s;
  }
  /// Fires with probability `p` per evaluation, deterministically under
  /// `seed`.
  static Spec Probability(double p, std::uint64_t seed = 0x5eedf01d) {
    Spec s;
    s.trigger = Trigger::kProbability;
    s.probability = p;
    s.seed = seed;
    return s;
  }
};

/// True iff the library was built with fail-point sites compiled in
/// (`-DDIFFC_FAILPOINTS=ON`); arming still works without it, but no site
/// evaluates.
bool CompiledIn();

/// Arms (or re-arms) the fail point `name`; resets its hit/trip counters.
void Arm(const std::string& name, const Spec& spec);

/// Disarms `name` (no-op when not armed).
void Disarm(const std::string& name);

/// Disarms every fail point.
void DisarmAll();

/// Evaluations of `name` since it was (last) armed; 0 when not armed.
std::uint64_t HitCount(const std::string& name);

/// Times `name` fired since it was (last) armed; 0 when not armed.
std::uint64_t TripCount(const std::string& name);

/// Arms fail points from a spec string:
///
///     name=trigger[;name=trigger...]
///
/// with `trigger` one of `always`, `hit(N)`, `after(N)`, `prob(P)`,
/// `prob(P,SEED)`, or `off` (disarm). Whitespace around tokens is
/// ignored. This is the grammar of the `DIFFC_FAILPOINTS` environment
/// variable.
Status ArmFromString(const std::string& spec);

/// Evaluates the fail point `name`: false unless armed and its trigger
/// fires. The target of the `DIFFC_FAILPOINT` macro; call directly only in
/// tests of the registry itself.
bool Evaluate(const char* name);

}  // namespace diffc::failpoint

#if defined(DIFFC_FAILPOINTS)
#define DIFFC_FAILPOINT(name) (::diffc::failpoint::Evaluate(name))
#else
#define DIFFC_FAILPOINT(name) (false)
#endif

#endif  // DIFFC_UTIL_FAILPOINT_H_
