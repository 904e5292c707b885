// diffc_client — command-line client for a running diffcd.
//
//   diffc_client --server=127.0.0.1:7411 ping
//   diffc_client --server=unix:/tmp/diffcd.sock check --n=4
//       --premises="A -> {B}; B -> {C}" --goals="A -> {C}; C -> {A}"
//       [--deadline-ms=500]   (one command line)
//
// `check` registers the premises, runs one CHECK_BATCH over the goals,
// prints one verdict per goal, releases the handle, and exits 0 when the
// batch ran (regardless of verdicts), 1 on any transport/server error.

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parser.h"
#include "flags.h"
#include "lattice/universe.h"
#include "net/client.h"
#include "net/wire.h"

namespace {

using diffc::tools::ParseFlag;
using diffc::tools::ParseIntFlag;

constexpr char kProgram[] = "diffc_client";
// Millisecond flags become clock offsets; the wire's deadline cap keeps
// them far from overflow.
constexpr long kMaxMs = static_cast<long>(diffc::net::kMaxDeadlineMs);

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --server=ADDR ping [--nonce=N]\n"
               "       %s --server=ADDR check --n=K   (K in 0..64)\n"
               "           --premises=TEXT | --premises-file=PATH\n"
               "           --goals=TEXT    | --goals-file=PATH\n"
               "           [--deadline-ms=N]\n"
               "resilience (both commands):\n"
               "           [--retries=N] [--retry-initial-ms=N] [--retry-budget-ms=N]\n"
               "           [--connect-timeout-ms=N] [--no-reconnect]\n"
               "           (N is a whole integer, at least 1 for --retries and 0\n"
               "           otherwise; a -ms value is at most 86400000; a bad\n"
               "           value exits 2)\n"
               "tracing (both commands):\n"
               "           [--trace]   force-sample the request end to end and print\n"
               "                       the trace id (look it up in diffcd's /tracez)\n",
               argv0, argv0);
}

bool ReadFileInto(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

const char* VerdictName(std::uint8_t verdict) {
  switch (verdict) {
    case 0:
      return "not-implied";
    case 1:
      return "implied";
    case 2:
      return "unknown";
    default:
      return "invalid";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_address;
  std::string command;
  std::string premises_text;
  std::string goals_text;
  long n = -1;
  long deadline_ms = 0;
  long nonce = 42;
  diffc::net::ClientOptions client_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string text;
    long value = 0;
    if (ParseFlag(arg, "server", &server_address)) {
    } else if (ParseFlag(arg, "premises", &premises_text)) {
    } else if (ParseFlag(arg, "goals", &goals_text)) {
    } else if (ParseFlag(arg, "premises-file", &text)) {
      if (!ReadFileInto(text, &premises_text)) {
        std::fprintf(stderr, "diffc_client: cannot read %s\n", text.c_str());
        return 1;
      }
    } else if (ParseFlag(arg, "goals-file", &text)) {
      if (!ReadFileInto(text, &goals_text)) {
        std::fprintf(stderr, "diffc_client: cannot read %s\n", text.c_str());
        return 1;
      }
    } else if (ParseIntFlag(kProgram, arg, "n", &n, /*min=*/0, /*max=*/64)) {
    } else if (ParseIntFlag(kProgram, arg, "deadline-ms", &deadline_ms, /*min=*/0, kMaxMs)) {
    } else if (ParseIntFlag(kProgram, arg, "nonce", &nonce)) {
    } else if (ParseIntFlag(kProgram, arg, "retries", &value, /*min=*/1, /*max=*/INT_MAX)) {
      client_options.retry.max_attempts = static_cast<int>(value);
    } else if (ParseIntFlag(kProgram, arg, "retry-initial-ms", &value, /*min=*/0, kMaxMs)) {
      client_options.retry.initial_backoff = std::chrono::milliseconds(value);
    } else if (ParseIntFlag(kProgram, arg, "retry-budget-ms", &value, /*min=*/0, kMaxMs)) {
      client_options.retry.retry_budget = std::chrono::milliseconds(value);
    } else if (ParseIntFlag(kProgram, arg, "connect-timeout-ms", &value, /*min=*/0, kMaxMs)) {
      client_options.connect_timeout = std::chrono::milliseconds(value);
    } else if (arg == "--no-reconnect") {
      client_options.reconnect = false;
    } else if (arg == "--trace") {
      client_options.trace_sample_rate = 1.0;
    } else if (arg == "ping" || arg == "check") {
      command = arg;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "diffc_client: unknown argument '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (server_address.empty() || command.empty()) {
    Usage(argv[0]);
    return 2;
  }

  diffc::Result<diffc::net::DiffcClient> client =
      diffc::net::DiffcClient::Connect(server_address, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "diffc_client: %s\n", client.status().ToString().c_str());
    return 1;
  }

  if (command == "ping") {
    diffc::Result<std::uint64_t> echoed = client->Ping(static_cast<std::uint64_t>(nonce));
    if (!echoed.ok()) {
      std::fprintf(stderr, "diffc_client: %s\n", echoed.status().ToString().c_str());
      return 1;
    }
    std::printf("pong nonce=%llu\n", static_cast<unsigned long long>(*echoed));
    if (client_options.trace_sample_rate >= 1.0) {
      std::printf("trace_id=%s\n", client->last_trace().IdHex().c_str());
    }
    return 0;
  }

  // check
  diffc::Result<diffc::Universe> u = diffc::Universe::LettersChecked(static_cast<int>(n));
  if (!u.ok()) {
    std::fprintf(stderr, "diffc_client: --n: %s\n", u.status().ToString().c_str());
    return 2;
  }
  diffc::Result<diffc::ConstraintSet> premises = diffc::ParseConstraintSet(*u, premises_text);
  if (!premises.ok()) {
    std::fprintf(stderr, "diffc_client: premises: %s\n",
                 premises.status().ToString().c_str());
    return 2;
  }
  diffc::Result<diffc::ConstraintSet> goals = diffc::ParseConstraintSet(*u, goals_text);
  if (!goals.ok()) {
    std::fprintf(stderr, "diffc_client: goals: %s\n", goals.status().ToString().c_str());
    return 2;
  }
  if (goals->empty()) {
    std::fprintf(stderr, "diffc_client: no goals given\n");
    return 2;
  }

  diffc::Result<diffc::net::RegisterOkMsg> registered =
      client->RegisterPremises(static_cast<int>(n), *premises);
  if (!registered.ok()) {
    std::fprintf(stderr, "diffc_client: register: %s\n",
                 registered.status().ToString().c_str());
    return 1;
  }
  diffc::Result<diffc::net::BatchResultMsg> batch =
      client->CheckBatch(registered->handle, static_cast<int>(n), *goals,
                         std::chrono::milliseconds(deadline_ms));
  if (!batch.ok()) {
    std::fprintf(stderr, "diffc_client: check: %s\n", batch.status().ToString().c_str());
    return 1;
  }

  for (std::size_t i = 0; i < batch->results.size(); ++i) {
    const diffc::net::WireQueryResult& r = batch->results[i];
    const std::string goal = (*goals)[i].ToString(*u);
    if (r.status_code != diffc::StatusCode::kOk) {
      std::printf("%s: error: %s\n", goal.c_str(), r.status_message.c_str());
      continue;
    }
    if (r.has_counterexample) {
      const std::string witness = (*u).FormatSet(r.counterexample);
      std::printf("%s: %s (counterexample %s)\n", goal.c_str(), VerdictName(r.verdict),
                  witness.c_str());
    } else {
      std::printf("%s: %s\n", goal.c_str(), VerdictName(r.verdict));
    }
  }
  std::printf("# %llu queries: %llu implied, %llu not implied, %llu degraded, %llu failed\n",
              static_cast<unsigned long long>(batch->stats.queries),
              static_cast<unsigned long long>(batch->stats.implied),
              static_cast<unsigned long long>(batch->stats.not_implied),
              static_cast<unsigned long long>(batch->stats.degraded),
              static_cast<unsigned long long>(batch->stats.failed));
  if (client_options.trace_sample_rate >= 1.0) {
    // The id of the CHECK_BATCH call (the server echoes it in the reply):
    // feed it to diffcd's /tracez?trace_id=... for the joined span tree.
    std::printf("# trace_id=%s\n", client->last_trace().IdHex().c_str());
  }

  diffc::Status released = client->Release(registered->handle);
  if (!released.ok()) {
    std::fprintf(stderr, "diffc_client: release: %s\n", released.ToString().c_str());
    return 1;
  }
  return 0;
}
