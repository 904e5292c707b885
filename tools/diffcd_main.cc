// diffcd — the long-running implication daemon. Binds the wire listener
// (and optionally the HTTP /metrics endpoint), then waits for SIGTERM /
// SIGINT and drains gracefully: in-flight batches finish (or are
// cancelled at the drain deadline), sessions close, and the process exits
// 0 on a clean drain, 1 on a forced one. Each session has its own thread,
// and a CHECK_BATCH runs on the session thread that received it.
//
//   diffcd --listen=127.0.0.1:7411 --metrics=127.0.0.1:9095
//          --max-inflight=16 --drain-ms=5000   (one command line)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "flags.h"
#include "net/server.h"
#include "net/wire.h"

namespace {

using diffc::tools::ParseFlag;
using diffc::tools::ParseIntFlag;

constexpr char kProgram[] = "diffcd";
// Millisecond flags become nanosecond clock offsets; the wire's deadline
// cap keeps them far from overflow.
constexpr long kMaxMs = static_cast<long>(diffc::net::kMaxDeadlineMs);

volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen=HOST:PORT|unix:/path] [--metrics=HOST:PORT]\n"
               "          [--max-inflight=N] [--max-handles=N]\n"
               "          [--drain-ms=N] [--trace]\n"
               "          [--trace_sample_rate=P] [--slow_query_ms=N]\n"
               "          [--trace_store_capacity=N]\n"
               "Each CHECK_BATCH runs on the session thread that received it;\n"
               "--max-inflight bounds how many batches run at once.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  diffc::net::ServerOptions options;
  options.listen_address = "127.0.0.1:7411";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string text;
    long value = 0;
    if (ParseFlag(arg, "listen", &text)) {
      options.listen_address = text;
    } else if (ParseFlag(arg, "metrics", &text)) {
      options.metrics_address = text;
    } else if (ParseIntFlag(kProgram, arg, "max-inflight", &value, /*min=*/1)) {
      // 0 slots would refuse every batch.
      options.max_inflight_batches = static_cast<std::size_t>(value);
    } else if (ParseIntFlag(kProgram, arg, "max-handles", &value, /*min=*/1)) {
      // 0 handles would refuse every REGISTER.
      options.max_handles_per_session = static_cast<std::size_t>(value);
    } else if (ParseIntFlag(kProgram, arg, "drain-ms", &value, /*min=*/0, kMaxMs)) {
      options.drain_deadline = std::chrono::milliseconds(value);
    } else if (ParseFlag(arg, "trace_sample_rate", &text)) {
      char* end = nullptr;
      double rate = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || rate < 0.0 || rate > 1.0) {
        std::fprintf(stderr, "diffcd: --trace_sample_rate must be in [0, 1], got '%s'\n",
                     text.c_str());
        return 2;
      }
      options.trace_sample_rate = rate;
    } else if (ParseIntFlag(kProgram, arg, "slow_query_ms", &value, /*min=*/0, kMaxMs)) {
      options.slow_request_threshold = std::chrono::milliseconds(value);
    } else if (ParseIntFlag(kProgram, arg, "trace_store_capacity", &value)) {
      options.trace_store_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--trace") {
      options.trace_sample_rate = 1.0;
      options.engine.trace = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "diffcd: unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  diffc::net::DiffcdServer server(options);
  diffc::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "diffcd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "diffcd: serving on %s\n", server.bound_address().c_str());
  if (!server.metrics_bound_address().empty()) {
    std::fprintf(stderr, "diffcd: metrics on http://%s/metrics\n",
                 server.metrics_bound_address().c_str());
  }

  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Park until a signal lands; the handler only sets a flag, the drain
  // itself runs on this (signal-safe) thread.
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "diffcd: signal %d, draining (budget %lld ms)\n",
               static_cast<int>(g_signal),
               static_cast<long long>(options.drain_deadline.count()));
  diffc::Status drained = server.Shutdown();
  if (!drained.ok()) {
    std::fprintf(stderr, "diffcd: forced drain: %s\n", drained.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "diffcd: drained cleanly\n");
  return 0;
}
