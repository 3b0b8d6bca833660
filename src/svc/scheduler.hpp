#pragma once

// JobScheduler: the multi-tenant core of the benchmark service.  Jobs are
// submitted as JobSpecs and run concurrently, each on its own runner thread,
// against the shared TeamPool.  The isolation contract — the property the
// ServiceDifferential test pins — is that a job's results are exactly what
// the same spec produces run alone: each runner binds a job-local
// fault::Injector and a job-local mem context (arena + options) to its
// thread, WorkerTeam::dispatch propagates both to the workers for the span
// of each region, and a faulting job degrades only its own team.
//
// Scheduling discipline:
//   * Admission control: submit() rejects (returns false) once
//     queue_capacity jobs are waiting; submit_wait() blocks instead.
//   * Strict FIFO with width gating: jobs acquire their team in submission
//     order, and the head of the queue waits until an entry of its width
//     frees up.  No bypass means no starvation: a wide job cannot be
//     overtaken forever by narrow ones (head-of-line latency is the price,
//     which the service report makes visible as queue time).
//   * Jobs whose width has no pool entry (and serial jobs) run on a private
//     team/arena — still FIFO-ordered, still isolation-scoped.
//
// Observability recording is disabled while a scheduler exists: the obs
// registry's per-(region, rank) cells are process-global, and two teams'
// rank-r threads would race on them.  Service-level metrics (latency
// percentiles, queue depth, utilization, per-job fault counters) come from
// the scheduler itself and each job's injector instead.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/jobspec.hpp"
#include "svc/pool.hpp"

namespace npb::svc {

struct JobOutcome {
  JobSpec spec;
  RunResult result;           ///< meaningful when completed
  bool completed = false;     ///< driver returned (check verified separately)
  bool verified = false;
  std::string error;          ///< driver threw: what() (job failed)
  double queue_seconds = 0.0; ///< submit -> team acquired
  double run_seconds = 0.0;   ///< driver span
  std::uint64_t faults_injected = 0;
  int degraded_width = 0;     ///< 0 = never degraded
  bool pooled_team = false;   ///< the driver borrowed the leased pool team
};

struct SchedulerOptions {
  /// Pool shape: one team per element (e.g. {1,2,2,3}).  Widths absent from
  /// the list make jobs of that width run on private teams.
  std::vector<int> pool_widths{1, 2, 3};
  /// submit() rejects once this many jobs are queued and not yet started.
  std::size_t queue_capacity = 64;
};

struct ServiceStats {
  std::size_t jobs_submitted = 0;
  std::size_t jobs_rejected = 0;   ///< admission-control refusals
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;     ///< driver threw
  std::size_t jobs_unverified = 0; ///< completed but failed verification
  std::size_t jobs_degraded = 0;
  std::size_t max_queue_depth = 0;
  int pool_width = 0;              ///< sum of pool entry widths
  int peak_width_in_use = 0;       ///< pooled + private widths, high-water
  double wall_seconds = 0.0;
  /// Integral of (running width x seconds); team utilization is
  /// width_seconds / (pool_width * wall_seconds).
  double width_seconds = 0.0;
  double latency_p50 = 0.0;        ///< queue + run, seconds
  double latency_p99 = 0.0;
  PoolStats pool;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions opts = {});
  /// Drains outstanding jobs, then re-enables obs recording.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job; false when the queue is full (the job is NOT run).
  bool submit(JobSpec spec);
  /// Blocking submit: waits for queue capacity instead of rejecting.
  void submit_wait(JobSpec spec);

  /// Waits for every submitted job, joins the runners, and returns outcomes
  /// in submission order.  The scheduler is reusable afterwards.
  std::vector<JobOutcome> drain();

  ServiceStats stats() const;

  /// Jobs submitted and not yet finished (queued + running).
  std::size_t in_flight() const;

  /// Runs one spec synchronously on the calling thread with the same
  /// isolation scoping (job-local injector + arena) but a private team —
  /// the sequential baseline the differential test compares against.
  static JobOutcome run_job_now(const JobSpec& spec);

 private:
  void runner(JobSpec spec, std::uint64_t seq, double submitted_at);
  bool queue_full_locked() const {
    return waiting_ >= opts_.queue_capacity;
  }

  const SchedulerOptions opts_;
  TeamPool pool_;
  const bool obs_was_enabled_;
  const double started_at_;

  mutable std::mutex m_;
  std::condition_variable cv_turn_;      ///< seq == next_turn_
  std::condition_variable cv_resource_;  ///< a lease was returned
  std::condition_variable cv_done_;      ///< a job finished / queue shrank
  std::uint64_t seq_next_ = 0;
  std::uint64_t next_turn_ = 0;
  std::size_t waiting_ = 0;     ///< submitted, team not yet acquired
  std::size_t running_ = 0;
  std::size_t done_ = 0;
  int width_in_use_ = 0;        ///< pooled + private, for the peak metric
  std::vector<std::thread> threads_;
  std::vector<JobOutcome> outcomes_;   ///< indexed by seq - drained_base_
  std::uint64_t drained_base_ = 0;
  ServiceStats stats_;
  std::vector<double> latencies_;      ///< completed jobs, queue + run
};

}  // namespace npb::svc
