// Measurement runner for the perfbench benchmark (see README.md).
//
// Runs a plan of benchmark cells through the public registry API
// (npb::find_benchmark / RunConfig / RunResult) and, on request, a set of
// layer probes that time public functions of common, par, obs and mem from
// outside.  Each cell runs in a forked child, as one npbrun invocation
// would: no heap or page state carries over from the cells before it, so
// the shuffled order cannot change a cell's set-up time or its peak
// resident memory, which the child reports itself.  It prints one JSON
// object per line: a "cell" record per cell run, a "probe" record per
// probe, and a final "proc" record.  Aggregation, failure accounting and
// the benchmark's result line are done by run.py.
//
//   npb_perfbench --seconds S [--min-passes N] [--probes] < plan
//
// Each plan line is one pass: "U" (untraced) or "T" (traced) followed by
// cells written BENCH:CLASS:MODE:THREADS, optionally suffixed ":fail" to
// force that cell to fail through a persistent fault spec.  Passes run in
// order while the next one is expected to finish within S seconds (and at
// least N passes always run).

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/classes.hpp"
#include "common/mode.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/options.hpp"
#include "mem/mem.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"
#include "par/team.hpp"

namespace {

using npb::wtime;

struct Cell {
  std::string bench;
  npb::ProblemClass cls = npb::ProblemClass::S;
  npb::Mode mode = npb::Mode::Native;
  int threads = 0;
  bool force_fail = false;
};

struct Pass {
  bool traced = false;
  std::vector<Cell> cells;
};

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "npb_perfbench: " << msg << "\n";
  std::exit(2);
}

Cell parse_cell(const std::string& tok) {
  std::vector<std::string> f;
  std::stringstream ss(tok);
  for (std::string part; std::getline(ss, part, ':');) f.push_back(part);
  if (f.size() != 4 && !(f.size() == 5 && f[4] == "fail")) die("bad cell " + tok);
  Cell c;
  c.bench = f[0];
  const auto cls = npb::parse_class(f[1]);
  const auto mode = npb::parse_mode(f[2]);
  if (!cls || !mode || !npb::find_benchmark(c.bench)) die("bad cell " + tok);
  c.cls = *cls;
  c.mode = *mode;
  c.threads = std::atoi(f[3].c_str());
  c.force_fail = f.size() == 5;
  return c;
}

std::vector<Pass> read_plan(std::istream& in) {
  std::vector<Pass> plan;
  for (std::string line; std::getline(in, line);) {
    std::stringstream ss(line);
    std::string kind;
    if (!(ss >> kind)) continue;
    if (kind != "U" && kind != "T") die("bad pass kind " + kind);
    Pass p;
    p.traced = kind == "T";
    for (std::string tok; ss >> tok;) p.cells.push_back(parse_cell(tok));
    plan.push_back(std::move(p));
  }
  return plan;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

/// Fails every region entry of a threaded run and forbids degradation, so
/// the run throws once its retries are exhausted.
npb::fault::FaultOptions forced_failure() {
  npb::fault::FaultOptions f;
  f.specs.push_back(*npb::fault::parse_fault_spec("region:throw:*:*:0:persist"));
  f.max_retries = 1;
  f.allow_degraded = false;
  return f;
}

void print_cell_head(const Cell& c, bool traced, int pass) {
  std::printf("{\"rec\":\"cell\",\"pass\":%d,\"traced\":%d,\"bench\":\"%s\","
              "\"cls\":\"%s\",\"mode\":\"%s\",\"threads\":%d",
              pass, traced ? 1 : 0, c.bench.c_str(), npb::to_string(c.cls),
              npb::to_string(c.mode), c.threads);
}

void run_cell(const Cell& c, bool traced, int pass) {
  npb::RunConfig cfg;
  cfg.cls = c.cls;
  cfg.mode = c.mode;
  cfg.threads = c.threads;
  if (c.force_fail) cfg.fault = forced_failure();

  auto& reg = npb::obs::ObsRegistry::instance();
  reg.set_enabled(traced);
  const npb::RunFn fn = npb::find_benchmark(c.bench);
  npb::RunResult r;
  std::string error;
  const double t0 = wtime();
  try {
    r = traced ? npb::run_instrumented(fn, cfg) : fn(cfg);
  } catch (const std::exception& e) {
    error = e.what();
    if (error.empty()) error = "exception";
  } catch (...) {
    error = "unknown exception";
  }
  const double wall = wtime() - t0;
  reg.set_enabled(false);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  print_cell_head(c, traced, pass);
  std::printf(
      ",\"wall\":%.9g,\"seconds\":%.9g,\"mops\":%.17g,\"verified\":%s,"
      "\"reference_checked\":%s,\"error\":\"%s\",\"maxrss_kb\":%ld",
      wall, r.seconds, r.mops, r.verified ? "true" : "false",
      r.reference_checked ? "true" : "false", json_escape(error).c_str(),
      ru.ru_maxrss);
  if (traced && error.empty()) {
    const npb::obs::Snapshot& s = r.obs;
    double region_s = 0.0;
    for (const auto& reg_stats : s.regions) region_s += reg_stats.seconds;
    std::printf(
        ",\"obs\":{\"region_s\":%.9g,\"dispatch_s\":%.9g,\"dispatches\":%llu,"
        "\"barrier_wait_s\":%.9g,\"barrier_episodes\":%llu,"
        "\"pipeline_wait_s\":%.9g,\"loop_imbalance\":%.9g,"
        "\"mem_bytes\":%.17g,\"mem_allocs\":%llu}",
        region_s, s.dispatch_seconds,
        static_cast<unsigned long long>(s.dispatches_count),
        s.barrier_wait_seconds,
        static_cast<unsigned long long>(s.barrier_wait_count),
        s.pipeline_wait_seconds, s.loop_imbalance(), s.mem_bytes_allocated,
        static_cast<unsigned long long>(s.mem_alloc_count));
  }
  std::printf("}\n");
  std::fflush(stdout);
}

/// Runs one cell in a forked child and waits for it.  A child that dies
/// without reporting still yields a record, as a failed cell.
void run_cell_isolated(const Cell& c, bool traced, int pass) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // a killed runner takes its cell along
    run_cell(c, traced, pass);
    std::fflush(stdout);
    _exit(0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) die("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    print_cell_head(c, traced, pass);
    std::printf(
        ",\"wall\":0,\"seconds\":0,\"mops\":0,\"verified\":false,"
        "\"reference_checked\":false,\"error\":\"cell process died (status %d)\","
        "\"maxrss_kb\":0}\n",
        status);
    std::fflush(stdout);
  }
}

void emit_probe(const char* name, const std::vector<double>& samples,
                const std::string& extra = "") {
  std::printf("{\"rec\":\"probe\",\"name\":\"%s\",\"samples\":[", name);
  for (std::size_t i = 0; i < samples.size(); ++i)
    std::printf("%s%.9g", i ? "," : "", samples[i]);
  std::printf("]%s}\n", extra.c_str());
  std::fflush(stdout);
}

void check(bool ok, const char* what) {
  if (!ok) die(std::string("probe check failed: ") + what);
}

constexpr int kProbeRepeats = 5;
constexpr int kProbeRanks = 4;

// ---- common: the NPB random number generator ------------------------------

void probe_rng() {
  const double seed = npb::kDefaultSeed;
  const double a = npb::kDefaultMultiplier;

  constexpr long kCalls = 1L << 21;
  std::vector<double> randlc_ns;
  for (int r = 0; r < kProbeRepeats; ++r) {
    double x = seed;
    double sum = 0.0;
    const double t0 = wtime();
    for (long i = 0; i < kCalls; ++i) sum += npb::randlc(x, a);
    randlc_ns.push_back((wtime() - t0) * 1e9 / kCalls);
    check(x == npb::randlc_skip(seed, a, kCalls), "randlc stream matches skip");
    check(sum > 0.0 && sum < kCalls, "randlc values in (0,1)");
  }
  emit_probe("rng.randlc_ns", randlc_ns);

  constexpr std::size_t kBlock = 1 << 16;
  constexpr int kBlocks = 64;
  std::vector<double> y(kBlock);
  std::vector<double> vranlc_ns;
  for (int r = 0; r < kProbeRepeats; ++r) {
    double x = seed;
    double sum = 0.0;
    const double t0 = wtime();
    for (int b = 0; b < kBlocks; ++b) {
      npb::vranlc(kBlock, x, a, y.data());
      sum += y[kBlock - 1];
    }
    vranlc_ns.push_back((wtime() - t0) * 1e9 / (double(kBlock) * kBlocks));
    check(x == npb::randlc_skip(seed, a, kBlock * kBlocks), "vranlc stream matches skip");
    check(sum > 0.0 && sum < kBlocks, "vranlc values in (0,1)");
  }
  emit_probe("rng.vranlc_ns", vranlc_ns);

  constexpr int kSkips = 20000;
  std::vector<double> skip_us;
  for (int r = 0; r < kProbeRepeats; ++r) {
    double x = seed;
    const double t0 = wtime();
    for (int i = 0; i < kSkips; ++i)
      x = npb::randlc_skip(x, a, (1ULL << 40) + static_cast<unsigned long long>(i));
    skip_us.push_back((wtime() - t0) * 1e6 / kSkips);
    // Skips compose: two skips of m and n equal one of m + n.
    const double two = npb::randlc_skip(npb::randlc_skip(x, a, 12345), a, 1ULL << 40);
    check(two == npb::randlc_skip(x, a, (1ULL << 40) + 12345), "randlc_skip composes");
  }
  emit_probe("rng.skip_us", skip_us);
}

// ---- par: team dispatch and barrier episodes -------------------------------

void probe_par() {
  npb::WorkerTeam team(kProbeRanks);  // default options: condvar barrier
  std::atomic<long> bodies{0};
  for (int i = 0; i < 200; ++i) team.run([&](int) { bodies.fetch_add(1); });

  constexpr int kRuns = 2000;
  std::vector<double> run_us;
  for (int r = 0; r < kProbeRepeats; ++r) {
    bodies = 0;
    const double t0 = wtime();
    for (int i = 0; i < kRuns; ++i)
      team.run([&](int) { bodies.fetch_add(1, std::memory_order_relaxed); });
    run_us.push_back((wtime() - t0) * 1e6 / kRuns);
    check(bodies.load() == long(kRuns) * kProbeRanks, "every rank ran every dispatch");
  }
  emit_probe("par.team_run_us", run_us);

  constexpr int kEpisodes = 5000;
  std::vector<double> barrier_us;
  for (int r = 0; r < kProbeRepeats; ++r) {
    std::atomic<long> passed{0};
    const double t0 = wtime();
    team.run([&](int) {
      for (int i = 0; i < kEpisodes; ++i) team.barrier();
      passed.fetch_add(kEpisodes, std::memory_order_relaxed);
    });
    barrier_us.push_back((wtime() - t0) * 1e6 / kEpisodes);
    check(passed.load() == long(kEpisodes) * kProbeRanks, "every rank passed every barrier");
  }
  emit_probe("par.barrier_episode_us", barrier_us);
}

// ---- obs: the cost of one traced region ------------------------------------

void probe_obs() {
  auto& reg = npb::obs::ObsRegistry::instance();
  const npb::obs::RegionId id = npb::obs::region("perfbench/probe");
  constexpr long kTimers = 1L << 20;
  std::vector<double> timer_ns;
  reg.set_enabled(true);
  for (int r = 0; r < kProbeRepeats; ++r) {
    reg.reset();
    const double t0 = wtime();
    for (long i = 0; i < kTimers; ++i) npb::obs::ScopedTimer t(id);
    timer_ns.push_back((wtime() - t0) * 1e9 / kTimers);
    std::uint64_t recorded = 0;
    for (const auto& s : reg.snapshot().regions)
      if (s.name == "perfbench/probe") recorded = s.count;
    check(!npb::obs::kActive || recorded == std::uint64_t(kTimers), "every timer recorded");
  }
  reg.set_enabled(false);
  reg.reset();
  emit_probe("obs.scoped_timer_ns", timer_ns);
}

// ---- mem: placement fills of a buffer far beyond the last-level cache ------

std::size_t fill_bytes(std::size_t llc) {
  constexpr std::size_t kMiB = std::size_t(1) << 20;
  const std::size_t want = 4 * std::max<std::size_t>(llc, 8 * kMiB);
  return std::min<std::size_t>(want, 2048 * kMiB);  // keep the probe's footprint bounded
}

void probe_mem() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t llc = static_cast<std::size_t>(l3 > 0 ? l3 : std::max(l2, 0L));
  const std::size_t bytes = fill_bytes(llc);
  const std::size_t n = bytes / sizeof(double);

  // One fresh (uncommitted) allocation per sample, so every fill pays the
  // page-committing first touch that place_fill exists to steer.  With a
  // team installed under FirstTouch the fill must run on the team.
  auto fill_seconds = [&](npb::WorkerTeam* team) {
    npb::mem::MemOptions opts;
    opts.placement = team ? npb::mem::Placement::FirstTouch : npb::mem::Placement::Serial;
    const npb::mem::ScopedMemConfig scope(opts);
    std::unique_ptr<npb::mem::ScopedTeamPlacement> placed;
    if (team) placed = std::make_unique<npb::mem::ScopedTeamPlacement>(team, npb::Schedule{});
    const npb::mem::Allocation a = npb::mem::acquire(bytes, 64);
    double* p = static_cast<double*>(a.p);
    npb::mem::reset_stats();
    const double t0 = wtime();
    npb::mem::place_fill(p, n, 1.5);
    const double secs = wtime() - t0;
    check(npb::mem::stats().first_touch_fills == (team ? 1u : 0u), "fill ran where placed");
    check(p[0] == 1.5 && p[n / 2] == 1.5 && p[n - 1] == 1.5, "place_fill wrote every page");
    npb::mem::release(a);
    return secs;
  };

  std::vector<double> serial_gbps, team_s;
  npb::WorkerTeam team(kProbeRanks);
  for (int r = 0; r < 3; ++r) {
    serial_gbps.push_back(double(bytes) / fill_seconds(nullptr) * 1e-9);
    team_s.push_back(fill_seconds(&team));
  }
  char extra[128];
  std::snprintf(extra, sizeof extra, ",\"llc_bytes\":%zu,\"array_bytes\":%zu", llc, bytes);
  emit_probe("mem.place_fill_gbps", serial_gbps, extra);
  emit_probe("mem.first_touch_s", team_s, extra);
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 0.0;
  int min_passes = 1;
  bool probes = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--min-passes" && i + 1 < argc) {
      min_passes = std::atoi(argv[++i]);
    } else if (a == "--probes") {
      probes = true;
    } else {
      die("usage: npb_perfbench --seconds S [--min-passes N] [--probes] < plan");
    }
  }
  const std::vector<Pass> plan = read_plan(std::cin);
  npb::obs::ObsRegistry::instance().set_enabled(false);

  if (probes) {
    probe_rng();
    probe_par();
    probe_obs();
    probe_mem();
  }

  const double start = wtime();
  double longest = 0.0;
  int done = 0;
  for (const Pass& p : plan) {
    const double now = wtime() - start;
    if (done >= min_passes && now + longest > seconds) break;
    const double t0 = wtime();
    for (const Cell& c : p.cells) run_cell_isolated(c, p.traced, done);
    longest = std::max(longest, wtime() - t0);
    ++done;
  }

  std::printf("{\"rec\":\"proc\",\"passes\":%d}\n", done);
  return 0;
}
