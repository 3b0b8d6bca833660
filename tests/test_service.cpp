// Service-level differential and property tests for the JobScheduler.
//
// The centerpiece is ServiceDifferential: a mixed matrix of concurrent jobs
// (every benchmark, widths 0..3, all three schedules, a vec column, a
// transiently-faulted column, and a persistently-faulted column that
// degrades) must produce checksums identical to the same specs run one at a
// time on a quiet process.  Concurrency, team pooling, arena reuse, and a
// neighbour's fault injection must all be invisible to a job's numerics —
// that is the isolation contract of the service.
//
// Tiers (tests/tolerance.hpp): every job compares Exact against its own
// sequential baseline — including the vec job (vec-vs-vec) and the transient
// fault (retry at unchanged width is replay-exact).  Only the persistently-
// faulted job, which finishes on a shrunken team, compares NpbEpsilon: a
// changed partition width changes reduction shapes, and the NPB acceptance
// epsilon is the documented promise for that case (its deterministic
// degradation is additionally pinned by comparing degraded_width).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "npb/registry.hpp"
#include "obs/obs.hpp"
#include "svc/scheduler.hpp"
#include "tolerance.hpp"

namespace {

using npb::svc::JobOutcome;
using npb::svc::JobScheduler;
using npb::svc::JobSpec;
using npb::svc::SchedulerOptions;
using npb::svc::ServiceStats;
using npb::testing::compare_checksums;
using npb::testing::Tolerance;

JobSpec make_spec(std::string id, std::string benchmark, int threads,
                  npb::Schedule schedule = {},
                  npb::Mode mode = npb::Mode::Native, bool fused = true) {
  JobSpec spec;
  spec.id = std::move(id);
  spec.benchmark = std::move(benchmark);
  spec.cfg.cls = npb::ProblemClass::S;
  spec.cfg.threads = threads;
  spec.cfg.schedule = schedule;
  spec.cfg.mode = mode;
  spec.cfg.fused = fused;
  return spec;
}

JobSpec with_fault(JobSpec spec, const char* fault_spec, int max_retries = 3) {
  const auto f = npb::fault::parse_fault_spec(fault_spec);
  EXPECT_TRUE(f.has_value()) << fault_spec;
  spec.cfg.fault.specs.push_back(*f);
  spec.cfg.fault.max_retries = max_retries;
  spec.cfg.fault.backoff_ms = 0;
  return spec;
}

constexpr npb::Schedule kStatic{};
constexpr npb::Schedule kDynamic{npb::Schedule::Kind::Dynamic, 64};
constexpr npb::Schedule kGuided{npb::Schedule::Kind::Guided, 1};

/// The mixed matrix: 18 jobs spanning all 8 benchmarks, widths 0..3, the
/// three schedules, forked (fused=off) and vec columns, and two fault
/// columns.  IDs are unique so outcomes can be matched to baselines.
std::vector<JobSpec> differential_matrix() {
  std::vector<JobSpec> jobs;
  jobs.push_back(make_spec("ep-serial", "EP", 0));
  jobs.push_back(make_spec("ep-w2", "EP", 2));
  jobs.push_back(make_spec("ep-w3-guided", "EP", 3, kGuided));
  jobs.push_back(make_spec("ep-w2-vec", "EP", 2, kStatic, npb::Mode::Vec));
  jobs.push_back(make_spec("is-w1", "IS", 1));
  jobs.push_back(make_spec("is-w3-dynamic", "IS", 3, kDynamic));
  jobs.push_back(make_spec("cg-w2", "CG", 2));
  jobs.push_back(make_spec("cg-w3-guided", "CG", 3, kGuided));
  jobs.push_back(make_spec("mg-w2", "MG", 2));
  jobs.push_back(make_spec("mg-w3-dynamic", "MG", 3, kDynamic));
  jobs.push_back(make_spec("ft-w2", "FT", 2));
  jobs.push_back(make_spec("ft-serial", "FT", 0));
  jobs.push_back(make_spec("bt-w2", "BT", 2));
  jobs.push_back(make_spec("sp-w3", "SP", 3));
  jobs.push_back(make_spec("lu-w2", "LU", 2));
  jobs.push_back(make_spec("lu-w2-forked", "LU", 2, kStatic,
                           npb::Mode::Native, /*fused=*/false));
  // Rank 1 throws on the second region crossing, once: retried at full
  // width, replay-exact.
  jobs.push_back(
      with_fault(make_spec("cg-w2-transient", "CG", 2), "region:throw:2:1:0"));
  // Rank 1 throws on every crossing: retries exhaust and the job finishes on
  // a shrunken team, without touching its neighbours.
  jobs.push_back(with_fault(make_spec("cg-w3-persist", "CG", 3),
                            "region:throw:*:1:0:persist",
                            /*max_retries=*/1));
  return jobs;
}

Tolerance tolerance_for(const JobSpec& spec) {
  return spec.cfg.fault.specs.empty() || spec.cfg.fault.max_retries > 1
             ? Tolerance::exact()
             : Tolerance::npb_eps();
}

TEST(ServiceDifferential, ConcurrentMatrixMatchesSequential) {
  const std::vector<JobSpec> jobs = differential_matrix();
  ASSERT_GE(jobs.size(), 16u);

  // Sequential baselines first, on a quiet process.
  std::vector<JobOutcome> baseline;
  baseline.reserve(jobs.size());
  for (const JobSpec& spec : jobs)
    baseline.push_back(JobScheduler::run_job_now(spec));

  // The same specs, all in flight together against a pooled runtime.
  SchedulerOptions opts;
  opts.pool_widths = {1, 2, 2, 3};
  JobScheduler scheduler(opts);
  for (const JobSpec& spec : jobs) scheduler.submit_wait(spec);
  const std::vector<JobOutcome> concurrent = scheduler.drain();
  ASSERT_EQ(concurrent.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& seq = baseline[i];
    const JobOutcome& con = concurrent[i];
    SCOPED_TRACE(jobs[i].id);
    ASSERT_EQ(con.spec.id, jobs[i].id);  // drain() preserves submission order
    ASSERT_TRUE(seq.completed) << seq.error;
    ASSERT_TRUE(con.completed) << con.error;
    EXPECT_TRUE(seq.verified);
    EXPECT_TRUE(con.verified);
    const auto r = compare_checksums(con.result.checksums,
                                     seq.result.checksums,
                                     tolerance_for(jobs[i]));
    EXPECT_TRUE(r.passed) << r.detail;
    // Fault isolation: only the two fault columns inject, and the
    // concurrent run injects exactly what the sequential replay injected.
    EXPECT_EQ(con.faults_injected, seq.faults_injected);
    EXPECT_EQ(con.degraded_width, seq.degraded_width);
    if (jobs[i].cfg.fault.specs.empty()) {
      EXPECT_EQ(con.faults_injected, 0u);
    }
  }

  // The persistent column really did degrade, in both worlds.
  const std::size_t persist = jobs.size() - 1;
  EXPECT_GT(concurrent[persist].degraded_width, 0);
  EXPECT_GT(baseline[persist].degraded_width, 0);

  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_submitted, jobs.size());
  EXPECT_EQ(stats.jobs_completed, jobs.size());
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.jobs_unverified, 0u);
  EXPECT_EQ(stats.jobs_degraded, 1u);
}

TEST(ServiceProperties, EveryScheduleRunsOnThePooledTeam) {
  // The pool builds each team from the job's config exactly as the driver
  // does, so every suite benchmark under every schedule borrows it (BT, SP,
  // LU and FT included, whose loops partition statically regardless).
  SchedulerOptions opts;
  opts.pool_widths = {2};
  JobScheduler scheduler(opts);
  const npb::Schedule schedules[] = {kStatic,
                                     {npb::Schedule::Kind::Dynamic, 8},
                                     {npb::Schedule::Kind::Guided, 2}};
  for (const npb::BenchmarkInfo& b : npb::suite())
    for (const npb::Schedule& sched : schedules)
      scheduler.submit_wait(make_spec(
          std::string(b.name) + "-" + npb::to_string(sched), b.name, 2, sched));
  const std::vector<JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 3 * npb::suite().size());
  for (const JobOutcome& out : outcomes) {
    SCOPED_TRACE(out.spec.id);
    EXPECT_TRUE(out.completed) << out.error;
    EXPECT_TRUE(out.verified) << out.result.verify_detail;
    EXPECT_TRUE(out.pooled_team);
  }
}

TEST(ServiceProperties, ModeAndFusionShareOneWarmTeam) {
  // A team's threads depend on neither the kernel mode nor whether the
  // driver fuses its steps, so same-width jobs that differ only there reuse
  // the one pooled team: a single build, then warm hits, no rebuilds.
  SchedulerOptions opts;
  opts.pool_widths = {2};
  JobScheduler scheduler(opts);
  constexpr int kJobs = 8;
  for (int i = 0; i < kJobs; ++i)
    scheduler.submit_wait(make_spec(
        "job-" + std::to_string(i), i % 4 < 2 ? "CG" : "IS", 2, kStatic,
        i % 2 == 0 ? npb::Mode::Native : npb::Mode::Java,
        /*fused=*/(i / 2) % 2 == 0));
  const std::vector<JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kJobs));
  for (const JobOutcome& out : outcomes) {
    SCOPED_TRACE(out.spec.id);
    EXPECT_TRUE(out.completed) << out.error;
    EXPECT_TRUE(out.verified) << out.result.verify_detail;
    EXPECT_TRUE(out.pooled_team);
  }
  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.pool.builds, 1u);
  EXPECT_EQ(stats.pool.rebuilds, 0u);
  EXPECT_EQ(stats.pool.warm_hits, static_cast<std::uint64_t>(kJobs - 1));
}

TEST(ServiceProperties, NoWidthOversubscription) {
  // Every job's width has a pool entry, so the peak concurrent width must
  // never exceed the pool's total: a lease is the only way onto a team.
  SchedulerOptions opts;
  opts.pool_widths = {2, 3};
  JobScheduler scheduler(opts);
  for (int i = 0; i < 10; ++i)
    scheduler.submit_wait(make_spec("job-" + std::to_string(i), "IS",
                                    i % 2 == 0 ? 2 : 3));
  scheduler.drain();
  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_completed, 10u);
  EXPECT_GT(stats.peak_width_in_use, 0);
  EXPECT_LE(stats.peak_width_in_use, stats.pool_width);
}

TEST(ServiceProperties, CheckoutCheckinBalanceAfterDrain) {
  SchedulerOptions opts;
  opts.pool_widths = {1, 2, 3};
  JobScheduler scheduler(opts);
  // Widths cycle 1,2,3; the schedule flips once mid-stream, so each width
  // sees build (first visit), warm hit (same options again), then rebuild
  // (options changed) — exercising all three checkout paths.
  for (int i = 0; i < 9; ++i)
    scheduler.submit_wait(make_spec("job-" + std::to_string(i), "CG",
                                    1 + i % 3, i < 6 ? kStatic : kGuided));
  scheduler.drain();
  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.pool.checkouts, 9u);
  EXPECT_EQ(stats.pool.checkins, stats.pool.checkouts);
  // Every checkout either reused a warm team, rebuilt for new options, or
  // built fresh — the three cases partition the checkouts.
  EXPECT_EQ(stats.pool.warm_hits + stats.pool.rebuilds + stats.pool.builds,
            stats.pool.checkouts);
  // Same-width same-options jobs exist in this stream, so at least one
  // landed on a warm team; the mid-stream schedule flip forces at least one
  // rebuild.
  EXPECT_GT(stats.pool.warm_hits, 0u);
  EXPECT_GT(stats.pool.rebuilds, 0u);
}

TEST(ServiceProperties, PoisonedJobIsolation) {
  // A job whose driver throws (persistent fault, degradation forbidden)
  // must fail alone: its pool team is destroyed, not returned dirty, and
  // later same-width jobs get a rebuilt team and verify cleanly.
  SchedulerOptions opts;
  opts.pool_widths = {2};
  JobScheduler scheduler(opts);
  JobSpec poison = with_fault(make_spec("poison", "CG", 2),
                              "region:throw:*:1:0:persist",
                              /*max_retries=*/1);
  poison.cfg.fault.allow_degraded = false;
  scheduler.submit_wait(poison);
  scheduler.submit_wait(make_spec("after-1", "CG", 2));
  scheduler.submit_wait(make_spec("after-2", "IS", 2));
  const std::vector<JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 3u);

  EXPECT_FALSE(outcomes[0].completed);
  EXPECT_FALSE(outcomes[0].error.empty());
  for (std::size_t i = 1; i < 3; ++i) {
    SCOPED_TRACE(outcomes[i].spec.id);
    EXPECT_TRUE(outcomes[i].completed) << outcomes[i].error;
    EXPECT_TRUE(outcomes[i].verified);
    EXPECT_EQ(outcomes[i].faults_injected, 0u);
  }
  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.pool.checkins, stats.pool.checkouts);
  // First build for the poisoned job, a second one after its team was
  // destroyed by the unhealthy checkin.
  EXPECT_GE(stats.pool.builds, 2u);
}

TEST(ServiceProperties, AdmissionControlRejectsWhenQueueFull) {
  SchedulerOptions opts;
  opts.pool_widths = {2};
  opts.queue_capacity = 2;
  JobScheduler scheduler(opts);
  std::size_t accepted = 0;
  for (int i = 0; i < 8; ++i)
    accepted += scheduler.submit(make_spec("job-" + std::to_string(i), "CG", 2))
                    ? 1u
                    : 0u;
  const std::vector<JobOutcome> outcomes = scheduler.drain();
  const ServiceStats stats = scheduler.stats();
  // Single-width pool: at most one job runs while capacity-many wait, so a
  // burst of 8 must see refusals — and a refused job is never run.
  EXPECT_LT(accepted, 8u);
  EXPECT_EQ(outcomes.size(), accepted);
  EXPECT_EQ(stats.jobs_submitted, accepted);
  EXPECT_EQ(stats.jobs_rejected, 8u - accepted);
  for (const JobOutcome& out : outcomes)
    EXPECT_TRUE(out.completed && out.verified) << out.spec.id;
}

TEST(ServiceProperties, CleanDrainOnShutdownAndObsRestore) {
  npb::obs::ObsRegistry::instance().set_enabled(true);
  {
    JobScheduler scheduler;
    // Global obs recording is suspended while a scheduler exists (its cells
    // are process-global and two teams' rank-r threads would race).
    if (npb::obs::kActive) {
      EXPECT_FALSE(npb::obs::ObsRegistry::instance().enabled());
    }
    scheduler.submit_wait(make_spec("s1", "IS", 2));
    scheduler.submit_wait(make_spec("s2", "EP", 1));
    // No drain(): the destructor must finish both jobs, join the runner
    // threads, and restore obs recording.
  }
  if (npb::obs::kActive) {
    EXPECT_TRUE(npb::obs::ObsRegistry::instance().enabled());
  }
}

TEST(ServiceProperties, SchedulerReusableAfterDrain) {
  JobScheduler scheduler;
  scheduler.submit_wait(make_spec("first", "IS", 2));
  const auto first = scheduler.drain();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].verified);
  scheduler.submit_wait(make_spec("second", "IS", 3));
  const auto second = scheduler.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].verified);
  EXPECT_EQ(second[0].spec.id, "second");
}

TEST(ServiceProperties, UnknownBenchmarkFailsThatJobOnly) {
  JobSpec bogus;
  bogus.id = "bogus";
  bogus.benchmark = "QQ";
  bogus.cfg.cls = npb::ProblemClass::S;
  JobScheduler scheduler;
  scheduler.submit_wait(bogus);
  scheduler.submit_wait(make_spec("fine", "IS", 1));
  const std::vector<JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].completed);
  EXPECT_NE(outcomes[0].error.find("unknown benchmark"), std::string::npos);
  EXPECT_TRUE(outcomes[1].verified);
}

}  // namespace
