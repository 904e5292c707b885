#include "engine/worker_pool.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace diffc {

namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Pool-wide (process-wide) registry handles; all pools aggregate into them.
struct PoolMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* exceptions;
  obs::Gauge* queue_depth;
  obs::Gauge* in_flight;
  obs::Histogram* queue_wait;
  obs::Histogram* run_time;

  PoolMetrics() {
    obs::Registry& r = obs::Registry::Global();
    submitted = r.GetCounter("diffc_pool_tasks_submitted_total",
                             "Tasks submitted to worker pools.");
    completed = r.GetCounter("diffc_pool_tasks_completed_total",
                             "Tasks completed by worker pools (including throwers).");
    exceptions = r.GetCounter("diffc_pool_task_exceptions_total",
                              "Exceptions that escaped tasks and were contained.");
    queue_depth =
        r.GetGauge("diffc_pool_queue_depth", "Tasks queued but not yet picked up.");
    in_flight = r.GetGauge("diffc_pool_in_flight", "Tasks currently executing.");
    queue_wait = r.GetHistogram("diffc_pool_queue_wait_seconds",
                                "Time from Submit to a worker picking the task up.",
                                obs::ExponentialBuckets(1e-6, 4.0, 12));
    run_time = r.GetHistogram("diffc_pool_task_run_seconds",
                              "Task execution time on the worker.",
                              obs::ExponentialBuckets(1e-6, 4.0, 12));
  }
};

PoolMetrics& Metrics() {
  static PoolMetrics* m = new PoolMetrics();
  return *m;
}

}  // namespace

WorkerPool::WorkerPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { WorkerLoop(stop); });
  }
}

WorkerPool::~WorkerPool() {
  for (std::jthread& w : workers_) w.request_stop();
  cv_.NotifyAll();
  // jthread joins on destruction.
}

void WorkerPool::Submit(std::function<void()> task) {
  // Count the submission BEFORE publishing the task: a worker may pop and
  // finish it the moment the lock drops, and `completed <= submitted` must
  // hold for every snapshot (release pairs with the acquire in stats()).
  submitted_.fetch_add(1, std::memory_order_release);
  std::size_t depth;
  {
    MutexLock lock(&mu_);
    queue_.push_back(QueuedTask{std::move(task), SteadyNowNs()});
    depth = queue_.size();
  }
  Metrics().submitted->Inc();
  Metrics().queue_depth->Set(static_cast<std::int64_t>(depth));
  cv_.NotifyOne();
}

WorkerPool::Stats WorkerPool::stats() const {
  Stats s;
  {
    MutexLock lock(&mu_);
    s.queue_depth = queue_.size();
  }
  // Load `completed` before `submitted`: the acquire synchronizes with the
  // completing worker's release, which itself saw the submission increment,
  // so `completed <= submitted` holds in every snapshot.
  s.completed = completed_.load(std::memory_order_acquire);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.exceptions = uncaught_exceptions_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

std::size_t WorkerPool::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

void WorkerPool::WorkerLoop(std::stop_token stop) {
  while (true) {
    QueuedTask task;
    std::size_t depth;
    {
      MutexLock lock(&mu_);
      // `Wait` re-evaluates the predicate with `mu_` held; the analysis
      // cannot see that through the type-erased wait, hence AssertHeld.
      cv_.Wait(mu_, stop, [this] {
        mu_.AssertHeld();
        return !queue_.empty();
      });
      if (queue_.empty()) return;  // Stop requested and nothing to drain.
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    const std::uint64_t start_ns = SteadyNowNs();
    Metrics().queue_wait->Observe((start_ns - task.enqueue_ns) / 1e9);
    Metrics().queue_depth->Set(static_cast<std::int64_t>(depth));
    Metrics().in_flight->Set(in_flight_.load(std::memory_order_relaxed) + 1);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    try {
      task.fn();
    } catch (...) {
      // Never let an exception escape the jthread (std::terminate). The
      // task's owner observes the failure through its own result channel;
      // this counter is for tests and post-mortems.
      uncaught_exceptions_.fetch_add(1, std::memory_order_relaxed);
      Metrics().exceptions->Inc();
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_release);
    Metrics().run_time->Observe((SteadyNowNs() - start_ns) / 1e9);
    Metrics().completed->Inc();
    Metrics().in_flight->Set(in_flight_.load(std::memory_order_relaxed));
  }
}

}  // namespace diffc
