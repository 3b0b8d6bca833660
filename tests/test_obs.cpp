// Tests for the observability layer (src/obs): interning, per-rank
// accumulation, ScopedTimer semantics, team counters, report emitters, and
// the no-allocation guarantee on the hot path.
//
// The registry is a process-wide singleton, so every test starts with
// reset() and tests only inspect regions they themselves interned (names are
// unique per test where aggregation matters).

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string>

#include "common/wtime.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/team.hpp"

// ---- global allocation counter (this TU only) ------------------------------

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace npb {
namespace {

// ---- minimal JSON well-formedness checker ----------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == s_.size();
  }

 private:
  bool value() {
    if (at_ >= s_.size()) return false;
    switch (s_[at_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++at_;  // '{'
    skip_ws();
    if (peek() == '}') { ++at_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++at_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == '}') { ++at_; return true; }
      return false;
    }
  }
  bool array() {
    ++at_;  // '['
    skip_ws();
    if (peek() == ']') { ++at_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == ']') { ++at_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++at_;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\') {
        if (at_ + 1 >= s_.size()) return false;
        ++at_;
      }
      ++at_;
    }
    if (at_ >= s_.size()) return false;
    ++at_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = at_;
    if (peek() == '-' || peek() == '+') ++at_;
    bool any = false;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) != 0 ||
            s_[at_] == '.' || s_[at_] == 'e' || s_[at_] == 'E' ||
            s_[at_] == '-' || s_[at_] == '+')) {
      ++at_;
      any = true;
    }
    return any && at_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++at_)
      if (at_ >= s_.size() || s_[at_] != *p) return false;
    return true;
  }
  char peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }
  void skip_ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_])) != 0)
      ++at_;
  }

  const std::string& s_;
  std::size_t at_ = 0;
};

// ---- registry basics -------------------------------------------------------

TEST(ObsRegistry, InternIsIdempotentAndStableAcrossReset) {
  auto& reg = obs::ObsRegistry::instance();
  const obs::RegionId a = obs::region("t_intern/a");
  const obs::RegionId b = obs::region("t_intern/b");
  EXPECT_GE(a, obs::kReservedRegions);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::region("t_intern/a"), a);
  reg.reset();
  EXPECT_EQ(obs::region("t_intern/a"), a) << "ids must survive reset";
}

TEST(ObsRegistry, RecordAccumulatesAndSnapshotTrimsRankSlots) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_record/phase");
  reg.record(id, -1, 1.0);  // master -> slot 0
  reg.record(id, -1, 0.5);
  reg.record(id, 2, 0.25);  // worker rank 2 -> slot 3
  const obs::Snapshot snap = reg.snapshot();
  const obs::RegionStats* st = nullptr;
  for (const auto& r : snap.regions)
    if (r.name == "t_record/phase") st = &r;
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->seconds, 1.75);
  EXPECT_EQ(st->count, 3u);
  ASSERT_EQ(st->rank_seconds.size(), 4u) << "trimmed to highest active slot";
  EXPECT_DOUBLE_EQ(st->rank_seconds[0], 1.5);
  EXPECT_EQ(st->rank_count[0], 2u);
  EXPECT_DOUBLE_EQ(st->rank_seconds[3], 0.25);
  EXPECT_EQ(st->rank_count[3], 1u);
}

TEST(ObsRegistry, OutOfRangeIdsAndRanksAreDropped) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  reg.record(-1, 0, 1.0);
  reg.record(obs::kMaxRegions + 7, 0, 1.0);
  const obs::RegionId id = obs::region("t_bounds/r");
  reg.record(id, obs::kMaxRanks, 1.0);  // slot kMaxRanks+1: out of range
  reg.record(id, -2, 1.0);
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_bounds/r");
}

TEST(ObsRegistry, ResetZeroesCountersOnly) {
  auto& reg = obs::ObsRegistry::instance();
  const obs::RegionId id = obs::region("t_reset/r");
  reg.record(id, -1, 3.0);
  reg.reset();
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_reset/r");
  EXPECT_EQ(snap.run_count, 0u);
  EXPECT_DOUBLE_EQ(snap.barrier_wait_seconds, 0.0);
}

// ---- ScopedTimer -----------------------------------------------------------

TEST(ScopedTimer, ElapsedIsNonNegativeAndMonotonic) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_timer/r");
  { obs::ScopedTimer t(id); }
  obs::Snapshot s1 = reg.snapshot();
  double first = -1.0;
  for (const auto& r : s1.regions)
    if (r.name == "t_timer/r") first = r.seconds;
  ASSERT_GE(first, 0.0);
  {
    obs::ScopedTimer t(id);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  obs::Snapshot s2 = reg.snapshot();
  double second = -1.0;
  std::uint64_t count = 0;
  for (const auto& r : s2.regions)
    if (r.name == "t_timer/r") {
      second = r.seconds;
      count = r.count;
    }
  EXPECT_GE(second, first) << "accumulated elapsed must not decrease";
  EXPECT_EQ(count, 2u);
}

TEST(ScopedTimer, NestedRegionsBothRecordAndInnerDoesNotExceedOuter) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId outer = obs::region("t_nest/outer");
  const obs::RegionId inner = obs::region("t_nest/outer/inner");
  {
    obs::ScopedTimer to(outer);
    obs::ScopedTimer ti(inner);
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  }
  const obs::Snapshot snap = reg.snapshot();
  double t_outer = -1.0, t_inner = -1.0;
  for (const auto& r : snap.regions) {
    if (r.name == "t_nest/outer") t_outer = r.seconds;
    if (r.name == "t_nest/outer/inner") t_inner = r.seconds;
  }
  ASSERT_GE(t_outer, 0.0);
  ASSERT_GE(t_inner, 0.0);
  // The inner scope closes before the outer, so with a monotonic clock the
  // inner elapsed cannot exceed the outer elapsed.
  EXPECT_LE(t_inner, t_outer);
}

// ---- per-rank isolation under a real team ----------------------------------

TEST(ObsTeam, PerRankSlotsAreIsolatedUnderFourThreadTeam) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_team/work");
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  WorkerTeam team(kThreads);
  for (int it = 0; it < kIters; ++it)
    team.run([&](int) {
      obs::ScopedTimer t(id);  // rank defaults to the caller's team rank
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    });
  const obs::Snapshot snap = reg.snapshot();
  const obs::RegionStats* st = nullptr;
  for (const auto& r : snap.regions)
    if (r.name == "t_team/work") st = &r;
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->count, static_cast<std::uint64_t>(kThreads * kIters));
  ASSERT_EQ(st->rank_seconds.size(), static_cast<std::size_t>(kThreads) + 1);
  EXPECT_EQ(st->rank_count[0], 0u) << "master recorded nothing";
  for (int rank = 0; rank < kThreads; ++rank) {
    EXPECT_EQ(st->rank_count[static_cast<std::size_t>(rank) + 1],
              static_cast<std::uint64_t>(kIters))
        << "rank " << rank << " must own exactly its records";
    EXPECT_GE(st->rank_seconds[static_cast<std::size_t>(rank) + 1], 0.0);
  }
}

TEST(ObsTeam, TeamCountersPopulateFromRunAndBarrier) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  constexpr int kThreads = 4;
  constexpr int kRuns = 10;
  WorkerTeam team(kThreads);
  for (int it = 0; it < kRuns; ++it)
    team.run([&](int) { team.barrier(); });
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.run_count, static_cast<std::uint64_t>(kRuns));
  EXPECT_GE(snap.run_span_seconds, 0.0);
  EXPECT_EQ(snap.dispatch_count, static_cast<std::uint64_t>(kRuns * kThreads));
  EXPECT_GE(snap.dispatch_seconds, 0.0);
  EXPECT_EQ(snap.barrier_wait_count, static_cast<std::uint64_t>(kRuns * kThreads));
  EXPECT_GE(snap.barrier_wait_seconds, 0.0);
}

// ---- hot path allocation guarantees ----------------------------------------

TEST(ObsHotPath, RecordAndScopedTimerDoNotAllocate) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_alloc/hot");  // intern is cold
  { obs::ScopedTimer warm(id); }                        // touch everything once
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedTimer t(id);
    reg.record(id, -1, 0.0);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "hot path must be allocation-free";
}

TEST(ObsHotPath, RuntimeDisabledPathIsAllocationFreeAndRecordsNothing) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_alloc/disabled");
  reg.set_enabled(false);
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedTimer t(id);
    reg.record(id, -1, 1.0);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  reg.set_enabled(true);
  EXPECT_EQ(after - before, 0);
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_alloc/disabled");
}

// ---- report emitters -------------------------------------------------------

obs::Snapshot sample_snapshot() {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_report/phase \"x\"\\1");
  reg.record(id, -1, 0.125);
  reg.record(id, 1, 0.5);
  reg.record(obs::kRegionRunSpan, -1, 1.0);
  reg.record(obs::kRegionBarrierWait, 0, 0.25);
  return reg.snapshot();
}

TEST(ObsReport, JsonIsWellFormedIncludingEscapes) {
  obs::ObsReport rep;
  rep.add_run("BT", "S", "java", 2, 1.5, sample_snapshot());
  rep.add_run("weird\"name\\", "W", "native", 0, 0.0, obs::Snapshot{});
  const std::string j = rep.json();
  JsonChecker check(j);
  EXPECT_TRUE(check.valid()) << j;
  EXPECT_NE(j.find("\"runs\""), std::string::npos);
  EXPECT_NE(j.find("\"barrier_wait_seconds\""), std::string::npos);
  EXPECT_NE(j.find("\"rank_seconds\""), std::string::npos);
}

TEST(ObsReport, EmptyReportIsValidJson) {
  obs::ObsReport rep;
  EXPECT_TRUE(rep.empty());
  const std::string j = rep.json();
  JsonChecker check(j);
  EXPECT_TRUE(check.valid()) << j;
}

TEST(ObsReport, CsvHasHeaderAndOneRowPerRegionPlusTeamCounters) {
  obs::ObsReport rep;
  rep.add_run("LU", "S", "native", 2, 0.5, sample_snapshot());
  const std::string csv = rep.csv();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  // header + 8 team rows (run_span, dispatch, barrier_wait, pipeline_wait,
  // loop_iters, loop_imbalance, dispatches, region_span) + 3 mem rows
  // (bytes, arena_hit, first_touch) + 6 fault rows (injected, watchdog_fires,
  // stuck_rank, retries, degraded_width, lost_shard) + 4 integrity rows
  // (ckpt/saved, ckpt/restored, ckpt/crc_fail, msg/crc_fail) + 3 steal rows
  // (steals, attempts, deque_max) + 1 user region
  EXPECT_EQ(lines, 26u);
  EXPECT_EQ(csv.rfind("benchmark,class,mode,threads,run_seconds,region,seconds,count\n", 0), 0u);
  EXPECT_NE(csv.find("team/run_span"), std::string::npos);
  EXPECT_NE(csv.find("team/barrier_wait"), std::string::npos);
  EXPECT_NE(csv.find("team/dispatches"), std::string::npos);
  EXPECT_NE(csv.find("team/region_span"), std::string::npos);
  EXPECT_NE(csv.find("team/loop_iters"), std::string::npos);
  EXPECT_NE(csv.find("steal/steals"), std::string::npos);
  EXPECT_NE(csv.find("steal/attempts"), std::string::npos);
  EXPECT_NE(csv.find("steal/deque_max"), std::string::npos);
  EXPECT_NE(csv.find("team/loop_imbalance"), std::string::npos);
  EXPECT_NE(csv.find("mem/bytes"), std::string::npos);
  EXPECT_NE(csv.find("mem/arena_hit"), std::string::npos);
  EXPECT_NE(csv.find("mem/first_touch"), std::string::npos);
  EXPECT_NE(csv.find("ckpt/saved"), std::string::npos);
  EXPECT_NE(csv.find("ckpt/restored"), std::string::npos);
  EXPECT_NE(csv.find("ckpt/crc_fail"), std::string::npos);
  EXPECT_NE(csv.find("msg/crc_fail"), std::string::npos);
}

// ---- scheduled-loop iteration counters -------------------------------------

TEST(ObsLoopIters, SnapshotSplitsPerRankAndComputesImbalance) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  // Three workers recorded 100/200/300 iterations; rank 1 did two passes.
  reg.record(obs::kRegionLoopIters, 0, 100.0);
  reg.record(obs::kRegionLoopIters, 1, 150.0);
  reg.record(obs::kRegionLoopIters, 1, 50.0);
  reg.record(obs::kRegionLoopIters, 2, 300.0);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.loop_iters_total, 600.0);
  EXPECT_EQ(snap.loop_record_count, 4u);
  ASSERT_EQ(snap.loop_rank_iters.size(), 4u);  // slots 0..3, rank r -> slot r+1
  EXPECT_DOUBLE_EQ(snap.loop_rank_iters[1], 100.0);
  EXPECT_DOUBLE_EQ(snap.loop_rank_iters[2], 200.0);
  EXPECT_DOUBLE_EQ(snap.loop_rank_iters[3], 300.0);
  EXPECT_EQ(snap.loop_rank_count[2], 2u);
  // max/mean = 300 / 200
  EXPECT_DOUBLE_EQ(snap.loop_imbalance(), 1.5);
}

TEST(ObsLoopIters, ImbalanceEdgeCases) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.snapshot().loop_imbalance(), 0.0) << "nothing recorded";
  reg.record(obs::kRegionLoopIters, -1, 42.0);  // serial path -> slot 0
  EXPECT_DOUBLE_EQ(reg.snapshot().loop_imbalance(), 1.0)
      << "serial-only records are trivially balanced";
  reg.reset();
}

TEST(ObsLoopIters, JsonCarriesLoopFields) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  reg.record(obs::kRegionLoopIters, 0, 10.0);
  reg.record(obs::kRegionLoopIters, 1, 30.0);
  obs::ObsReport rep;
  rep.add_run("CG", "S", "native", 2, 1.0, reg.snapshot());
  const std::string j = rep.json();
  JsonChecker check(j);
  EXPECT_TRUE(check.valid()) << j;
  EXPECT_NE(j.find("\"loop_record_count\":2"), std::string::npos);
  EXPECT_NE(j.find("\"loop_iters_total\":40"), std::string::npos);
  EXPECT_NE(j.find("\"loop_rank_iters\""), std::string::npos);
  EXPECT_NE(j.find("\"loop_imbalance\":1.5"), std::string::npos);
}

// ---- execution-shape dispatch counts ---------------------------------------

// Team dispatches and per-rank barrier waits of one class-S run of every
// suite benchmark, pinned exactly for the three execution shapes: serial
// (no team, so none of either), and two threads forked (--fused=off: one
// fork/join per parallel loop) and fused (one SPMD region per time step).
// These are the counts behind the bench_ablation_sync fusion table; a
// refactor of how a driver's step is written must leave them unchanged.
TEST(ObsDispatches, EachExecutionShapeIssuesItsPinnedCounts) {
  struct Row {
    const char* name;
    double forked_dispatches;
    double fused_dispatches;
    std::uint64_t forked_barriers;
    std::uint64_t fused_barriers;
  };
  const Row rows[] = {
      // name  forked fused  forked fused   (dispatches, barrier waits)
      {"BT", 302, 62, 0, 480},
      {"SP", 1102, 102, 0, 2000},
      {"LU", 102, 52, 200, 300},
      {"FT", 31, 13, 0, 60},
      {"IS", 31, 11, 0, 60},
      {"CG", 1980, 15, 0, 4800},
      {"MG", 73, 5, 0, 320},
      {"EP", 1, 1, 0, 0},
  };
  ASSERT_EQ(std::size(rows), suite().size());
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Native;
  for (const Row& row : rows) {
    const RunFn fn = find_benchmark(row.name);
    ASSERT_NE(fn, nullptr) << row.name;
    cfg.threads = 0;
    const RunResult serial = run_instrumented(fn, cfg);
    EXPECT_TRUE(serial.verified) << row.name;
    EXPECT_EQ(serial.obs.dispatches_total, 0.0) << row.name;
    EXPECT_EQ(serial.obs.barrier_wait_count, 0u) << row.name;
    cfg.threads = 2;
    cfg.fused = false;
    const RunResult forked = run_instrumented(fn, cfg);
    EXPECT_TRUE(forked.verified) << row.name;
    EXPECT_EQ(forked.obs.dispatches_total, row.forked_dispatches) << row.name;
    EXPECT_EQ(forked.obs.barrier_wait_count, row.forked_barriers) << row.name;
    cfg.fused = true;
    const RunResult fused = run_instrumented(fn, cfg);
    EXPECT_TRUE(fused.verified) << row.name;
    EXPECT_EQ(fused.obs.dispatches_total, row.fused_dispatches) << row.name;
    EXPECT_EQ(fused.obs.barrier_wait_count, row.fused_barriers) << row.name;
  }
  obs::ObsRegistry::instance().reset();
}

}  // namespace
}  // namespace npb
