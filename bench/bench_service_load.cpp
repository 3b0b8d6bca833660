// Load generator for the job-scheduler service: synthesizes a deterministic
// mixed stream of class-S jobs (every benchmark, widths 0..3, all schedules,
// a vec column, optionally one persistently-faulted job), pushes them through
// JobScheduler concurrently, and prints / writes the service-level JSON.
//
// Used by CI's soak job under ASan, and by hand to size pools:
//   bench_service_load --jobs=32 --pool=1,2,3 --faulted --service-report=service.json
//
// The spec stream is a pure function of --seed, so two runs with the same
// flags produce the same job mix (queueing order and timings still vary).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "npb/registry.hpp"
#include "svc/report.hpp"
#include "svc/scheduler.hpp"

namespace {

struct Options {
  int jobs = 32;
  std::vector<int> pool{1, 2, 3};
  npb::ProblemClass cls = npb::ProblemClass::S;
  std::uint64_t seed = 12345;
  bool faulted = false;
  std::size_t queue_cap = 64;
  std::string service_report;
};

// xorshift64*: tiny deterministic PRNG; avoids <random> distribution
// differences across libstdc++ versions.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

std::vector<npb::svc::JobSpec> make_jobs(const Options& opt) {
  static const char* kBench[] = {"EP", "IS", "CG", "MG", "FT", "BT", "SP", "LU"};
  static const npb::Schedule kSchedules[] = {
      npb::Schedule{},
      npb::Schedule{npb::Schedule::Kind::Dynamic, 64},
      npb::Schedule{npb::Schedule::Kind::Guided, 1},
  };
  std::uint64_t state = opt.seed != 0 ? opt.seed : 1;
  std::vector<npb::svc::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(opt.jobs));
  for (int i = 0; i < opt.jobs; ++i) {
    npb::svc::JobSpec spec;
    spec.id = "load-" + std::to_string(i);
    spec.benchmark = kBench[next_rand(state) % 8];
    spec.cfg.cls = opt.cls;
    spec.cfg.threads = static_cast<int>(next_rand(state) % 4);  // 0..3
    spec.cfg.schedule = kSchedules[next_rand(state) % 3];
    spec.cfg.fused = (next_rand(state) % 4) != 0;  // mostly fused
    // EP has a vec kernel at every class; give ~1 in 8 jobs the vec mode.
    if (spec.benchmark == std::string("EP") && next_rand(state) % 2 == 0)
      spec.cfg.mode = npb::Mode::Vec;
    specs.push_back(std::move(spec));
  }
  if (opt.faulted && !specs.empty()) {
    // One persistently-faulted job: rank 1 of its team throws at every step,
    // so retries exhaust and the job degrades to a shrunken team.  Routed
    // through the job-local injector, it must not perturb its neighbours.
    npb::svc::JobSpec& victim = specs[specs.size() / 2];
    victim.id += "-faulted";
    victim.benchmark = "CG";
    victim.cfg.mode = npb::Mode::Native;
    victim.cfg.threads = 3;
    const auto fault = npb::fault::parse_fault_spec("region:throw:*:1:0:persist");
    victim.cfg.fault.specs.push_back(*fault);
    victim.cfg.fault.max_retries = 1;
    victim.cfg.fault.backoff_ms = 0;
  }
  return specs;
}

bool parse_int(const char* s, int& out) {
  if (*s == '\0' || std::strlen(s) > 9) return false;
  int v = 0;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
    v = v * 10 + (*s - '0');
  }
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    int v = 0;
    if (std::strncmp(a, "--jobs=", 7) == 0 && parse_int(a + 7, v) && v > 0) {
      opt.jobs = v;
    } else if (std::strncmp(a, "--pool=", 7) == 0) {
      opt.pool.clear();
      std::string tok;
      for (const char* p = a + 7;; ++p) {
        if (*p != '\0' && *p != ',') {
          tok += *p;
          continue;
        }
        if (!parse_int(tok.c_str(), v) || v > 32) return false;
        opt.pool.push_back(v);
        tok.clear();
        if (*p == '\0') break;
      }
      if (opt.pool.empty()) return false;
    } else if (std::strncmp(a, "--class=", 8) == 0) {
      const auto c = npb::parse_class(a + 8);
      if (!c) return false;
      opt.cls = *c;
    } else if (std::strncmp(a, "--seed=", 7) == 0 && parse_int(a + 7, v)) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(a, "--faulted") == 0) {
      opt.faulted = true;
    } else if (std::strncmp(a, "--queue-cap=", 12) == 0 &&
               parse_int(a + 12, v) && v > 0) {
      opt.queue_cap = static_cast<std::size_t>(v);
    } else if (std::strncmp(a, "--service-report=", 17) == 0) {
      opt.service_report = a + 17;
    } else {
      std::fprintf(stderr, "unknown or bad argument '%s'\n", a);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fputs(
        "usage: bench_service_load [--jobs=N] [--pool=W,W,...] [--class=S|W|A]\n"
        "                          [--seed=N] [--faulted] [--queue-cap=N]\n"
        "                          [--service-report=FILE]\n",
        stderr);
    return 2;
  }

  const std::vector<npb::svc::JobSpec> specs = make_jobs(opt);
  npb::svc::SchedulerOptions sched_opts;
  sched_opts.pool_widths = opt.pool;
  sched_opts.queue_capacity = opt.queue_cap;
  npb::svc::JobScheduler scheduler(sched_opts);
  for (const auto& spec : specs) scheduler.submit_wait(spec);
  const std::vector<npb::svc::JobOutcome> outcomes = scheduler.drain();
  const npb::svc::ServiceStats stats = scheduler.stats();

  int bad = 0;
  for (const auto& out : outcomes) {
    if (out.completed && out.verified) continue;
    // A degraded-but-verified job is a success story; anything else is not.
    std::fprintf(stderr, "job %s: %s\n", out.spec.id.c_str(),
                 out.error.empty() ? "verification failed" : out.error.c_str());
    ++bad;
  }
  std::printf(
      "service load: %d jobs (%llu rejected), %llu completed, %llu degraded, "
      "%llu failed\n"
      "  wall %.3fs  p50 %.3fs  p99 %.3fs  utilization %.1f%%  warm hits "
      "%llu/%llu\n",
      opt.jobs, static_cast<unsigned long long>(stats.jobs_rejected),
      static_cast<unsigned long long>(stats.jobs_completed),
      static_cast<unsigned long long>(stats.jobs_degraded),
      static_cast<unsigned long long>(stats.jobs_failed), stats.wall_seconds,
      stats.latency_p50, stats.latency_p99,
      stats.pool_width > 0 && stats.wall_seconds > 0.0
          ? 100.0 * stats.width_seconds /
                (stats.pool_width * stats.wall_seconds)
          : 0.0,
      static_cast<unsigned long long>(stats.pool.warm_hits),
      static_cast<unsigned long long>(stats.pool.checkouts));

  const npb::json::Value doc = npb::svc::service_json(outcomes, stats);
  if (!opt.service_report.empty()) {
    if (!npb::svc::write_json(doc, opt.service_report)) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.service_report.c_str());
      return 1;
    }
    std::fprintf(stderr, "service report -> %s\n", opt.service_report.c_str());
  }
  return bad == 0 ? 0 : 1;
}
