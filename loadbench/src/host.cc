// Host facts and CPU placement for the benchmark process.

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench.h"

namespace loadbench {

void Spin(int iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);
}

double PipeRoundTripNs(int rounds) {
  int ping[2];
  int pong[2];
  if (pipe(ping) != 0) return 0;
  if (pipe(pong) != 0) {
    close(ping[0]);
    close(ping[1]);
    return 0;
  }
  const std::uint64_t start = NowNs();
  std::thread echo([&] {
    char c;
    for (int i = 0; i < rounds; ++i) {
      if (read(ping[0], &c, 1) != 1 || write(pong[1], &c, 1) != 1) break;
    }
    close(pong[1]);  // Ends the main thread's read if this loop stopped early.
  });
  int done = 0;
  for (char c = 0; done < rounds; ++done) {
    if (write(ping[1], &c, 1) != 1 || read(pong[0], &c, 1) != 1) break;
  }
  close(ping[1]);  // Ends the echo thread's read if the loop stopped early.
  echo.join();
  const double ns = static_cast<double>(NowNs() - start);
  close(ping[0]);
  close(pong[0]);
  return done == rounds ? ns / rounds : 0;
}

int PinToQuietestCpu() {
  // The CPUs the process may use, captured before the first pinning
  // narrows the calling thread's own mask.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  int best = -1;
  double best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const std::uint64_t start = NowNs();
    Spin(1'000'000);
    const double ns = static_cast<double>(NowNs() - start);
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(best, &set);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return sched_setaffinity(0, sizeof set, &set) == 0 ? best : -1;
  while (dirent* e = readdir(tasks)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
  closedir(tasks);
  return best;
}

}  // namespace loadbench
