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
#include <cstring>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/wtime.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/snapshot_io.hpp"
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

// Not inlined: GCC 12 would otherwise see free() on a pointer that came
// from operator new and warn (-Wmismatched-new-delete) in sanitizer builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// ---- pinned formats: registry mapping, wire bytes, JSON, CSV ---------------

// Every reserved Snapshot field set by name to a distinct short binary
// fraction (exact under any decimal formatting), plus two user regions.
obs::Snapshot pinned_snapshot() {
  obs::Snapshot s;
  s.run_span_seconds = 0.5;          s.run_count = 1;
  s.dispatch_seconds = 0.25;         s.dispatch_count = 2;
  s.barrier_wait_seconds = 0.125;    s.barrier_wait_count = 3;
  s.pipeline_wait_seconds = 0.0625;  s.pipeline_wait_count = 4;
  s.loop_iters_total = 4.5;          s.loop_record_count = 5;
  s.loop_rank_iters = {0.5, 1.0, 3.0};  // workers 1 and 3: imbalance 1.5
  s.loop_rank_count = {1, 2, 2};
  s.mem_bytes_allocated = 6.5;       s.mem_alloc_count = 6;
  s.mem_arena_hit_bytes = 7.5;       s.mem_arena_hit_count = 7;
  s.first_touch_seconds = 0.375;     s.first_touch_count = 8;
  s.dispatches_total = 9.5;          s.dispatches_count = 9;
  s.region_span_seconds = 0.625;     s.region_count = 10;
  s.fault_injected_total = 11.5;     s.fault_injected_count = 11;
  s.watchdog_fires_total = 12.5;     s.watchdog_fires_count = 12;
  s.stuck_rank_sum = 13.5;           s.stuck_rank_count = 13;
  s.fault_retries_total = 14.5;      s.fault_retries_count = 14;
  s.degraded_width_sum = 15.5;       s.degraded_width_count = 15;
  s.lost_shard_sum = 16.5;           s.lost_shard_count = 16;
  s.ckpt_saved_total = 17.5;         s.ckpt_saved_count = 17;
  s.ckpt_restored_step_sum = 18.5;   s.ckpt_restored_count = 18;
  s.ckpt_crc_fail_total = 19.5;      s.ckpt_crc_fail_count = 19;
  s.msg_crc_fail_rank_sum = 20.5;    s.msg_crc_fail_count = 20;
  s.steal_steals_total = 21.5;       s.steal_steals_count = 21;
  s.steal_rank_steals = {0.25, 21.25};
  s.steal_attempts_total = 22.5;     s.steal_attempts_count = 22;
  s.steal_rank_attempts = {0.75, 21.75};
  s.steal_deque_max_sum = 23.5;      s.steal_deque_max_count = 23;
  s.steal_rank_deque_max = {1.25, 22.25, 0.0};
  s.regions.push_back({"pin/alpha", 1.75, 24, {0.75, 1.0}, {4, 20}});
  s.regions.push_back({"pin/beta", 2.875, 25, {2.875}, {25}});
  return s;
}

void expect_same_snapshot(const obs::Snapshot& a, const obs::Snapshot& b) {
#define NPB_SAME(f) EXPECT_EQ(a.f, b.f) << #f
  NPB_SAME(run_span_seconds);      NPB_SAME(run_count);
  NPB_SAME(dispatch_seconds);      NPB_SAME(dispatch_count);
  NPB_SAME(barrier_wait_seconds);  NPB_SAME(barrier_wait_count);
  NPB_SAME(pipeline_wait_seconds); NPB_SAME(pipeline_wait_count);
  NPB_SAME(loop_iters_total);      NPB_SAME(loop_record_count);
  NPB_SAME(loop_rank_iters);       NPB_SAME(loop_rank_count);
  NPB_SAME(mem_bytes_allocated);   NPB_SAME(mem_alloc_count);
  NPB_SAME(mem_arena_hit_bytes);   NPB_SAME(mem_arena_hit_count);
  NPB_SAME(first_touch_seconds);   NPB_SAME(first_touch_count);
  NPB_SAME(dispatches_total);      NPB_SAME(dispatches_count);
  NPB_SAME(region_span_seconds);   NPB_SAME(region_count);
  NPB_SAME(fault_injected_total);  NPB_SAME(fault_injected_count);
  NPB_SAME(watchdog_fires_total);  NPB_SAME(watchdog_fires_count);
  NPB_SAME(stuck_rank_sum);        NPB_SAME(stuck_rank_count);
  NPB_SAME(fault_retries_total);   NPB_SAME(fault_retries_count);
  NPB_SAME(degraded_width_sum);    NPB_SAME(degraded_width_count);
  NPB_SAME(lost_shard_sum);        NPB_SAME(lost_shard_count);
  NPB_SAME(ckpt_saved_total);      NPB_SAME(ckpt_saved_count);
  NPB_SAME(ckpt_restored_step_sum); NPB_SAME(ckpt_restored_count);
  NPB_SAME(ckpt_crc_fail_total);   NPB_SAME(ckpt_crc_fail_count);
  NPB_SAME(msg_crc_fail_rank_sum); NPB_SAME(msg_crc_fail_count);
  NPB_SAME(steal_steals_total);    NPB_SAME(steal_steals_count);
  NPB_SAME(steal_rank_steals);
  NPB_SAME(steal_attempts_total);  NPB_SAME(steal_attempts_count);
  NPB_SAME(steal_rank_attempts);
  NPB_SAME(steal_deque_max_sum);   NPB_SAME(steal_deque_max_count);
  NPB_SAME(steal_rank_deque_max);
#undef NPB_SAME
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].name, b.regions[r].name);
    EXPECT_EQ(a.regions[r].seconds, b.regions[r].seconds);
    EXPECT_EQ(a.regions[r].count, b.regions[r].count);
    EXPECT_EQ(a.regions[r].rank_seconds, b.regions[r].rank_seconds);
    EXPECT_EQ(a.regions[r].rank_count, b.regions[r].rank_count);
  }
}

TEST(ObsFormat, SnapshotRoundTripsThroughTheWireFormat) {
  const obs::Snapshot s = pinned_snapshot();
  std::vector<unsigned char> bytes = {0xAB};  // decoding starts mid-buffer
  obs::serialize_snapshot(s, bytes);
  std::size_t at = 1;
  const obs::Snapshot back = obs::deserialize_snapshot(bytes, at);
  EXPECT_EQ(at, bytes.size());
  expect_same_snapshot(s, back);
}

TEST(ObsFormat, DecoderRejectsEveryTruncationAndImplausibleLengths) {
  const obs::Snapshot s = pinned_snapshot();
  std::vector<unsigned char> bytes;
  obs::serialize_snapshot(s, bytes);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<unsigned char> prefix(bytes.begin(), bytes.begin() + n);
    std::size_t at = 0;
    EXPECT_THROW(obs::deserialize_snapshot(prefix, at), std::runtime_error)
        << "prefix of " << n << " bytes";
  }
  // The wire ends with the last user region's rank_count: its length word,
  // then its entries.  Any length above the decoder's 2^20 cap is refused.
  const std::size_t len_at =
      bytes.size() - sizeof(std::uint64_t) * (1 + s.regions.back().rank_count.size());
  for (const std::uint64_t len : {(std::uint64_t{1} << 20) + 1, ~std::uint64_t{0}}) {
    std::vector<unsigned char> bad = bytes;
    std::memcpy(bad.data() + len_at, &len, sizeof len);
    std::size_t at = 0;
    EXPECT_THROW(obs::deserialize_snapshot(bad, at), std::runtime_error) << len;
  }
}

TEST(ObsFormat, ReservedIdsLandInTheirNamedFields) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  // Reserved id k receives k + 1 once, on worker rank 1 (slot 2).
  for (int k = 0; k < obs::kReservedRegions; ++k) reg.record(k, 1, k + 1.0);
  const obs::Snapshot s = reg.snapshot();
  reg.reset();
  EXPECT_TRUE(s.regions.empty());
  const std::pair<double, std::uint64_t> by_id[] = {
      {s.run_span_seconds, s.run_count},
      {s.dispatch_seconds, s.dispatch_count},
      {s.barrier_wait_seconds, s.barrier_wait_count},
      {s.pipeline_wait_seconds, s.pipeline_wait_count},
      {s.loop_iters_total, s.loop_record_count},
      {s.mem_bytes_allocated, s.mem_alloc_count},
      {s.mem_arena_hit_bytes, s.mem_arena_hit_count},
      {s.first_touch_seconds, s.first_touch_count},
      {s.dispatches_total, s.dispatches_count},
      {s.region_span_seconds, s.region_count},
      {s.fault_injected_total, s.fault_injected_count},
      {s.watchdog_fires_total, s.watchdog_fires_count},
      {s.stuck_rank_sum, s.stuck_rank_count},
      {s.fault_retries_total, s.fault_retries_count},
      {s.degraded_width_sum, s.degraded_width_count},
      {s.lost_shard_sum, s.lost_shard_count},
      {s.steal_steals_total, s.steal_steals_count},
      {s.steal_attempts_total, s.steal_attempts_count},
      {s.steal_deque_max_sum, s.steal_deque_max_count},
      {s.ckpt_saved_total, s.ckpt_saved_count},
      {s.ckpt_restored_step_sum, s.ckpt_restored_count},
      {s.ckpt_crc_fail_total, s.ckpt_crc_fail_count},
      {s.msg_crc_fail_rank_sum, s.msg_crc_fail_count},
  };
  ASSERT_EQ(std::size(by_id), static_cast<std::size_t>(obs::kReservedRegions));
  for (int k = 0; k < obs::kReservedRegions; ++k) {
    EXPECT_EQ(by_id[k].first, k + 1.0) << "reserved id " << k;
    EXPECT_EQ(by_id[k].second, 1u) << "reserved id " << k;
  }
  // The per-slot vectors hold slots 0..2 with only slot 2 (rank 1) set.
  auto slot2 = [](const auto& v) {
    return v.size() == 3 && v[0] == 0 && v[1] == 0 ? static_cast<double>(v[2])
                                                   : -1.0;
  };
  EXPECT_EQ(slot2(s.loop_rank_iters), 5.0);
  EXPECT_EQ(slot2(s.loop_rank_count), 1.0);
  EXPECT_EQ(slot2(s.steal_rank_steals), 17.0);
  EXPECT_EQ(slot2(s.steal_rank_attempts), 18.0);
  EXPECT_EQ(slot2(s.steal_rank_deque_max), 19.0);
}

// One hybrid run: the pinned snapshot as the merged entry, plus one shard
// that recorded nothing.
obs::ObsReport pinned_report() {
  obs::ObsReport rep;
  rep.add_run("CG", "S", "native", 2, 0.5, pinned_snapshot(), 2,
              {obs::ShardSnapshot{1, 0.375, obs::Snapshot{}}});
  return rep;
}

TEST(ObsFormat, JsonReportMatchesThePinnedDocument) {
  // Key set, nesting and values of today's report; object key order is not
  // part of the format (the comparison goes through the canonical dump).
  const char* const pinned = R"({"runs":[{
    "benchmark":"CG","class":"S","mode":"native","threads":2,"seconds":0.5,
    "procs":2,
    "team":{"run_count":1,"run_span_seconds":0.5,
            "dispatch_count":2,"dispatch_seconds":0.25,
            "barrier_wait_count":3,"barrier_wait_seconds":0.125,
            "pipeline_wait_count":4,"pipeline_wait_seconds":0.0625,
            "dispatches":9,"region_count":10,"region_span_seconds":0.625,
            "loop_record_count":5,"loop_iters_total":4.5,
            "loop_rank_iters":[0.5,1,3],"loop_imbalance":1.5},
    "mem":{"alloc_count":6,"bytes_allocated":6.5,
           "arena_hit_count":7,"arena_hit_bytes":7.5,
           "first_touch_count":8,"first_touch_seconds":0.375},
    "fault":{"injected":11,"watchdog_fires":12,
             "stuck_rank_count":13,"stuck_rank_sum":13.5,"retries":14,
             "degraded_width_count":15,"degraded_width_sum":15.5,
             "lost_shard_count":16,"lost_shard_sum":16.5},
    "ckpt":{"saved":17,"restored":18,"restored_step_sum":18.5,"crc_fail":19},
    "msg":{"crc_fail":20,"crc_fail_rank_sum":20.5},
    "steal":{"steals":21.5,"attempts":22.5,"deque_max_sum":23.5,
             "scope_flushes":23,"rank_steals":[0.25,21.25],
             "rank_attempts":[0.75,21.75],"rank_deque_max":[1.25,22.25,0]},
    "regions":[
      {"name":"pin/alpha","seconds":1.75,"count":24,
       "rank_seconds":[0.75,1],"rank_count":[4,20]},
      {"name":"pin/beta","seconds":2.875,"count":25,
       "rank_seconds":[2.875],"rank_count":[25]}],
    "shards":[{
      "rank":1,"seconds":0.375,
      "team":{"run_count":0,"run_span_seconds":0,
              "dispatch_count":0,"dispatch_seconds":0,
              "barrier_wait_count":0,"barrier_wait_seconds":0,
              "pipeline_wait_count":0,"pipeline_wait_seconds":0,
              "dispatches":0,"region_count":0,"region_span_seconds":0,
              "loop_record_count":0,"loop_iters_total":0,
              "loop_rank_iters":[],"loop_imbalance":0},
      "mem":{"alloc_count":0,"bytes_allocated":0,
             "arena_hit_count":0,"arena_hit_bytes":0,
             "first_touch_count":0,"first_touch_seconds":0},
      "fault":{"injected":0,"watchdog_fires":0,
               "stuck_rank_count":0,"stuck_rank_sum":0,"retries":0,
               "degraded_width_count":0,"degraded_width_sum":0,
               "lost_shard_count":0,"lost_shard_sum":0},
      "ckpt":{"saved":0,"restored":0,"restored_step_sum":0,"crc_fail":0},
      "msg":{"crc_fail":0,"crc_fail_rank_sum":0},
      "steal":{"steals":0,"attempts":0,"deque_max_sum":0,
               "scope_flushes":0,"rank_steals":[],
               "rank_attempts":[],"rank_deque_max":[]},
      "regions":[]}]
  }]})";
  const std::string j = pinned_report().json();
  const auto got = json::parse(j);
  ASSERT_TRUE(got.has_value()) << j;
  std::string err;
  const auto want = json::parse(pinned, &err);
  ASSERT_TRUE(want.has_value()) << err;
  EXPECT_EQ(got->dump(), want->dump());
}

TEST(ObsFormat, CsvReportHasThePinnedLines) {
  const std::string csv = pinned_report().csv();
  std::multiset<std::string> got;
  for (std::size_t at = 0, nl; (nl = csv.find('\n', at)) != std::string::npos;
       at = nl + 1)
    got.insert(csv.substr(at, nl - at));
  const char* const want_lines[] = {
      "benchmark,class,mode,threads,run_seconds,region,seconds,count",
      "CG,S,native,2,0.5,team/run_span,0.5,1",
      "CG,S,native,2,0.5,team/dispatch,0.25,2",
      "CG,S,native,2,0.5,team/barrier_wait,0.125,3",
      "CG,S,native,2,0.5,team/pipeline_wait,0.0625,4",
      "CG,S,native,2,0.5,team/dispatches,9.5,9",
      "CG,S,native,2,0.5,team/region_span,0.625,10",
      "CG,S,native,2,0.5,team/loop_iters,4.5,5",
      "CG,S,native,2,0.5,team/loop_imbalance,1.5,5",
      "CG,S,native,2,0.5,mem/bytes,6.5,6",
      "CG,S,native,2,0.5,mem/arena_hit,7.5,7",
      "CG,S,native,2,0.5,mem/first_touch,0.375,8",
      "CG,S,native,2,0.5,fault/injected,11.5,11",
      "CG,S,native,2,0.5,fault/watchdog_fires,12.5,12",
      "CG,S,native,2,0.5,fault/stuck_rank,13.5,13",
      "CG,S,native,2,0.5,fault/retries,14.5,14",
      "CG,S,native,2,0.5,fault/degraded_width,15.5,15",
      "CG,S,native,2,0.5,fault/lost_shard,16.5,16",
      "CG,S,native,2,0.5,ckpt/saved,17.5,17",
      "CG,S,native,2,0.5,ckpt/restored,18.5,18",
      "CG,S,native,2,0.5,ckpt/crc_fail,19.5,19",
      "CG,S,native,2,0.5,msg/crc_fail,20.5,20",
      "CG,S,native,2,0.5,steal/steals,21.5,21",
      "CG,S,native,2,0.5,steal/attempts,22.5,22",
      "CG,S,native,2,0.5,steal/deque_max,23.5,23",
      "CG,S,native,2,0.5,pin/alpha,1.75,24",
      "CG,S,native,2,0.5,pin/beta,2.875,25",
      "CG,S,native,2,0.5,shard/1,0.375,1",
  };
  std::multiset<std::string> want;
  for (const char* line : want_lines) want.insert(line);
  EXPECT_EQ(got, want) << csv;
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
