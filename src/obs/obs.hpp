#pragma once

// Region-scoped observability for the thread runtime — the instrumentation
// the paper's section 5 analysis presumes.  NPB's reference codes carry a
// `timer_*` facility (timer_start/timer_stop per named section); this layer
// extends that idea with *thread-level attribution*: every region keeps one
// cache-line-padded accumulator per team rank (plus one for the master /
// serial path), so a hot loop never writes a line another rank reads, and
// the per-rank breakdown the paper reasons about — where the 10-20% thread
// overhead goes, why LU's in-loop synchronization hurts — can be read back
// directly.
//
// The par, mem, fault, ckpt, msg and task runtimes record into reserved
// regions with fixed ids.  kReserved below lists each one once; the
// registry, snapshot(), both report emitters and the shard wire format all
// iterate that table.
//
// Compile with -DNPB_OBS_DISABLED to replace the whole API with inline
// no-ops (distinct inline namespace, so mixed translation units stay
// ODR-clean); the data structs below stay defined either way so RunResult's
// snapshot field keeps one layout.

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/wtime.hpp"

namespace npb::obs {

/// Stable index into the registry; negative means "not recorded".
using RegionId = int;

/// Aggregated view of one region.  Slot 0 is the master (rank -1, also the
/// plain serial path); slot r+1 is worker rank r.  Vectors are trimmed to
/// the highest slot that recorded anything.
struct RegionStats {
  std::string name;
  double seconds = 0.0;
  std::uint64_t count = 0;
  std::vector<double> rank_seconds;
  std::vector<std::uint64_t> rank_count;
};

/// One run's worth of instrumentation: user regions plus one value/count
/// pair per reserved region (kReserved below says which member is whose and
/// what it holds).  Per-slot vectors use RegionStats's slot numbering.
struct Snapshot {
  std::vector<RegionStats> regions;
  double run_span_seconds = 0.0;
  std::uint64_t run_count = 0;
  double dispatch_seconds = 0.0;
  std::uint64_t dispatch_count = 0;
  double barrier_wait_seconds = 0.0;
  std::uint64_t barrier_wait_count = 0;
  double pipeline_wait_seconds = 0.0;
  std::uint64_t pipeline_wait_count = 0;
  double loop_iters_total = 0.0;
  std::uint64_t loop_record_count = 0;
  std::vector<double> loop_rank_iters;
  std::vector<std::uint64_t> loop_rank_count;

  double mem_bytes_allocated = 0.0;
  std::uint64_t mem_alloc_count = 0;
  double mem_arena_hit_bytes = 0.0;
  std::uint64_t mem_arena_hit_count = 0;
  double first_touch_seconds = 0.0;
  std::uint64_t first_touch_count = 0;

  double dispatches_total = 0.0;
  std::uint64_t dispatches_count = 0;
  double region_span_seconds = 0.0;
  std::uint64_t region_count = 0;

  double fault_injected_total = 0.0;
  std::uint64_t fault_injected_count = 0;
  double watchdog_fires_total = 0.0;
  std::uint64_t watchdog_fires_count = 0;
  double stuck_rank_sum = 0.0;
  std::uint64_t stuck_rank_count = 0;
  double fault_retries_total = 0.0;
  std::uint64_t fault_retries_count = 0;
  double degraded_width_sum = 0.0;
  std::uint64_t degraded_width_count = 0;
  double lost_shard_sum = 0.0;
  std::uint64_t lost_shard_count = 0;

  double ckpt_saved_total = 0.0;
  std::uint64_t ckpt_saved_count = 0;
  double ckpt_restored_step_sum = 0.0;
  std::uint64_t ckpt_restored_count = 0;
  double ckpt_crc_fail_total = 0.0;
  std::uint64_t ckpt_crc_fail_count = 0;
  double msg_crc_fail_rank_sum = 0.0;
  std::uint64_t msg_crc_fail_count = 0;

  double steal_steals_total = 0.0;
  std::uint64_t steal_steals_count = 0;
  std::vector<double> steal_rank_steals;
  double steal_attempts_total = 0.0;
  std::uint64_t steal_attempts_count = 0;
  std::vector<double> steal_rank_attempts;
  double steal_deque_max_sum = 0.0;
  std::uint64_t steal_deque_max_count = 0;
  std::vector<double> steal_rank_deque_max;

  /// Max-over-mean of per-worker iteration counts in scheduled loops: 1.0 is
  /// perfectly balanced, nranks is one rank doing everything, 0.0 means no
  /// scheduled loop recorded.  Worker slots only (slot 0 falls back in when
  /// only the serial path recorded).
  double loop_imbalance() const noexcept {
    double mx = 0.0, sum = 0.0;
    int n = 0;
    for (std::size_t s = 1; s < loop_rank_count.size(); ++s) {
      if (loop_rank_count[s] == 0) continue;
      const double v = loop_rank_iters[s];
      if (v > mx) mx = v;
      sum += v;
      ++n;
    }
    if (n == 0) {
      if (loop_rank_count.empty() || loop_rank_count[0] == 0) return 0.0;
      return 1.0;  // serial path: trivially balanced
    }
    const double mean = sum / static_cast<double>(n);
    return mean > 0.0 ? mx / mean : 0.0;
  }
};

inline constexpr RegionId kRegionRunSpan = 0;
inline constexpr RegionId kRegionDispatch = 1;
inline constexpr RegionId kRegionBarrierWait = 2;
inline constexpr RegionId kRegionPipelineWait = 3;
inline constexpr RegionId kRegionLoopIters = 4;
inline constexpr RegionId kRegionMemBytes = 5;
inline constexpr RegionId kRegionMemArenaHit = 6;
inline constexpr RegionId kRegionMemFirstTouch = 7;
inline constexpr RegionId kRegionDispatches = 8;
inline constexpr RegionId kRegionRegionSpan = 9;
inline constexpr RegionId kRegionFaultInjected = 10;
inline constexpr RegionId kRegionFaultWatchdogFires = 11;
inline constexpr RegionId kRegionFaultStuckRank = 12;
inline constexpr RegionId kRegionFaultRetries = 13;
inline constexpr RegionId kRegionFaultDegradedWidth = 14;
inline constexpr RegionId kRegionFaultLostShard = 15;
inline constexpr RegionId kRegionStealSteals = 16;
inline constexpr RegionId kRegionStealAttempts = 17;
inline constexpr RegionId kRegionStealDequeMax = 18;
inline constexpr RegionId kRegionCkptSaved = 19;
inline constexpr RegionId kRegionCkptRestored = 20;
inline constexpr RegionId kRegionCkptCrcFail = 21;
inline constexpr RegionId kRegionMsgCrcFail = 22;

/// One reserved region: the path it is interned under (also its CSV region
/// name), the Snapshot members snapshot() fills from it, and the keys of the
/// JSON report's `group` object they are written under.  A null key leaves
/// that member out of the JSON; the CSV row and the shard wire format carry
/// every member.  Many counters ride the "seconds" accumulator with a count,
/// byte total, rank id or width instead of a time; each row says which.
struct ReservedRegion {
  RegionId id;
  const char* path;
  double Snapshot::*value;
  std::uint64_t Snapshot::*count;
  const char* group;
  const char* value_key;
  const char* count_key;
  std::vector<double> Snapshot::*rank_values = nullptr;  // per-slot values
  const char* rank_values_key = nullptr;
  std::vector<std::uint64_t> Snapshot::*rank_counts = nullptr;
};

inline constexpr ReservedRegion kReserved[] = {
    // Master-side wall time of each WorkerTeam::run().
    {kRegionRunSpan, "team/run_span", &Snapshot::run_span_seconds,
     &Snapshot::run_count, "team", "run_span_seconds", "run_count"},
    // Master notify -> worker start latency, per rank.
    {kRegionDispatch, "team/dispatch", &Snapshot::dispatch_seconds,
     &Snapshot::dispatch_count, "team", "dispatch_seconds", "dispatch_count"},
    // Arrive -> release time in team barriers, per rank.
    {kRegionBarrierWait, "team/barrier_wait", &Snapshot::barrier_wait_seconds,
     &Snapshot::barrier_wait_count, "team", "barrier_wait_seconds",
     "barrier_wait_count"},
    // Spin time in PipelineSync::wait_for, per rank.
    {kRegionPipelineWait, "team/pipeline_wait",
     &Snapshot::pipeline_wait_seconds, &Snapshot::pipeline_wait_count, "team",
     "pipeline_wait_seconds", "pipeline_wait_count"},
    // Iterations executed per rank in scheduled loops (value = iterations);
    // the per-slot split feeds Snapshot::loop_imbalance().
    {kRegionLoopIters, "team/loop_iters", &Snapshot::loop_iters_total,
     &Snapshot::loop_record_count, "team", "loop_iters_total",
     "loop_record_count", &Snapshot::loop_rank_iters, "loop_rank_iters",
     &Snapshot::loop_rank_count},
    // Fresh bytes obtained by the mem subsystem (value = bytes,
    // count = allocations).
    {kRegionMemBytes, "mem/bytes", &Snapshot::mem_bytes_allocated,
     &Snapshot::mem_alloc_count, "mem", "bytes_allocated", "alloc_count"},
    // Bytes served from the arena pool (value = bytes, count = pool hits).
    {kRegionMemArenaHit, "mem/arena_hit", &Snapshot::mem_arena_hit_bytes,
     &Snapshot::mem_arena_hit_count, "mem", "arena_hit_bytes",
     "arena_hit_count"},
    // Wall time of team-executed first-touch fills (count = placed fills).
    {kRegionMemFirstTouch, "mem/first_touch", &Snapshot::first_touch_seconds,
     &Snapshot::first_touch_count, "mem", "first_touch_seconds",
     "first_touch_count"},
    // WorkerTeam::run() dispatches (value rides 1.0 per dispatch).
    {kRegionDispatches, "team/dispatches", &Snapshot::dispatches_total,
     &Snapshot::dispatches_count, "team", nullptr, "dispatches"},
    // Master-side wall time of each fused spmd() region.
    {kRegionRegionSpan, "team/region_span", &Snapshot::region_span_seconds,
     &Snapshot::region_count, "team", "region_span_seconds", "region_count"},
    // Faults fired by the injector, per blamed rank (value rides 1.0 each).
    {kRegionFaultInjected, "fault/injected", &Snapshot::fault_injected_total,
     &Snapshot::fault_injected_count, "fault", nullptr, "injected"},
    // Barrier-watchdog escalations to Barrier::abort() (1.0 each).
    {kRegionFaultWatchdogFires, "fault/watchdog_fires",
     &Snapshot::watchdog_fires_total, &Snapshot::watchdog_fires_count, "fault",
     nullptr, "watchdog_fires"},
    // Ranks the watchdog blamed (value sums the rank ids; the per-slot
    // breakdown shows which rank was stuck).
    {kRegionFaultStuckRank, "fault/stuck_rank", &Snapshot::stuck_rank_sum,
     &Snapshot::stuck_rank_count, "fault", "stuck_rank_sum",
     "stuck_rank_count"},
    // Time-step retries performed by StepRunner (1.0 each).
    {kRegionFaultRetries, "fault/retries", &Snapshot::fault_retries_total,
     &Snapshot::fault_retries_count, "fault", nullptr, "retries"},
    // Team widths adopted by graceful degradation (value sums the new widths;
    // count = shrinks).
    {kRegionFaultDegradedWidth, "fault/degraded_width",
     &Snapshot::degraded_width_sum, &Snapshot::degraded_width_count, "fault",
     "degraded_width_sum", "degraded_width_count"},
    // Worker processes of a hybrid shm run that died or went silent (value
    // sums the lost rank ids; count = losses).
    {kRegionFaultLostShard, "fault/lost_shard", &Snapshot::lost_shard_sum,
     &Snapshot::lost_shard_count, "fault", "lost_shard_sum",
     "lost_shard_count"},
    // Jobs obtained by work-stealing, per thief rank (value = jobs;
    // count = scope flushes that stole anything).
    {kRegionStealSteals, "steal/steals", &Snapshot::steal_steals_total,
     &Snapshot::steal_steals_count, "steal", "steals", nullptr,
     &Snapshot::steal_rank_steals, "rank_steals"},
    // Steal attempts, successful or not, per rank (same convention).
    {kRegionStealAttempts, "steal/attempts", &Snapshot::steal_attempts_total,
     &Snapshot::steal_attempts_count, "steal", "attempts", nullptr,
     &Snapshot::steal_rank_attempts, "rank_attempts"},
    // Deepest task deque per rank and scope (value sums the watermarks;
    // count = scopes, so value/count is the mean per-scope peak).
    {kRegionStealDequeMax, "steal/deque_max", &Snapshot::steal_deque_max_sum,
     &Snapshot::steal_deque_max_count, "steal", "deque_max_sum",
     "scope_flushes", &Snapshot::steal_rank_deque_max, "rank_deque_max"},
    // Durable checkpoints flushed by StepRunner (1.0 per committed flush).
    {kRegionCkptSaved, "ckpt/saved", &Snapshot::ckpt_saved_total,
     &Snapshot::ckpt_saved_count, "ckpt", nullptr, "saved"},
    // Resumes from a durable checkpoint (value sums the restored step
    // numbers; count = resumes).
    {kRegionCkptRestored, "ckpt/restored", &Snapshot::ckpt_restored_step_sum,
     &Snapshot::ckpt_restored_count, "ckpt", "restored_step_sum", "restored"},
    // Checkpoint integrity failures: a flushed payload whose readback CRC32C
    // mismatched, or a corrupted in-memory shadow (1.0 each).
    {kRegionCkptCrcFail, "ckpt/crc_fail", &Snapshot::ckpt_crc_fail_total,
     &Snapshot::ckpt_crc_fail_count, "ckpt", nullptr, "crc_fail"},
    // Shm transport frames whose CRC32C check failed (value sums the blamed
    // sender ranks; count = detections).
    {kRegionMsgCrcFail, "msg/crc_fail", &Snapshot::msg_crc_fail_rank_sum,
     &Snapshot::msg_crc_fail_count, "msg", "crc_fail_rank_sum", "crc_fail"},
};
inline constexpr int kReservedRegions = static_cast<int>(std::size(kReserved));

static_assert(
    [] {
      for (int i = 0; i < kReservedRegions; ++i)
        if (kReserved[i].id != i) return false;
      return true;
    }(),
    "row i of kReserved must describe reserved id i");

/// Worker ranks 0..kMaxRanks-1 get their own slot; higher ranks are dropped.
inline constexpr int kMaxRanks = 32;
inline constexpr int kMaxRegions = 256;

/// One shard's (worker process's) instrumentation in a hybrid shm run:
/// the rank's in-process snapshot plus its timed-phase wall seconds, shipped
/// back over the result pipe and merged into the parent's RunResult so one
/// JSON report carries every process's breakdown.  Defined unconditionally
/// (like Snapshot) so RunResult keeps one layout under NPB_OBS_DISABLED.
struct ShardSnapshot {
  int rank = 0;
  double seconds = 0.0;
  Snapshot snap;
};

#ifndef NPB_OBS_DISABLED

inline constexpr bool kActive = true;

inline namespace enabled {

/// Rank of the calling thread inside its WorkerTeam (-1 on the master or
/// any non-team thread).  Set by the team runtime; lets ScopedTimer
/// attribute without plumbing rank through every call chain.
void set_thread_rank(int rank) noexcept;
int thread_rank() noexcept;

class ObsRegistry {
 public:
  static ObsRegistry& instance();

  ObsRegistry(const ObsRegistry&) = delete;
  ObsRegistry& operator=(const ObsRegistry&) = delete;

  /// Interns `path` and returns its stable id (cold path, thread-safe).
  /// Ids survive reset(); returns -1 once kMaxRegions names exist.
  RegionId intern(std::string_view path);

  /// Adds `seconds` to (region, rank) and bumps its count.  Hot path:
  /// no locks, no allocation; each (region, rank) cell is one cache line
  /// written only by that rank's thread.
  void record(RegionId id, int rank, double seconds) noexcept {
    if (!enabled_relaxed() || id < 0 || id >= n_regions_hint()) return;
    const int slot = rank + 1;
    if (slot < 0 || slot > kMaxRanks) return;
    Cell& c = cells_[static_cast<std::size_t>(id) * kSlots +
                     static_cast<std::size_t>(slot)];
    c.seconds += seconds;
    ++c.count;
  }

  /// Runtime switch (compile-time one is NPB_OBS_DISABLED).  Disabled
  /// recording is a single relaxed atomic load.
  void set_enabled(bool on) noexcept;
  bool enabled() const noexcept { return enabled_relaxed(); }

  /// Zeroes every accumulator; interned names and ids are kept so cached
  /// RegionIds in benchmark code stay valid across runs.
  void reset() noexcept;

  /// Aggregates the current counters.  Caller must ensure no thread is
  /// recording concurrently (i.e. call between runs, not inside one).
  Snapshot snapshot() const;

 private:
  ObsRegistry();

  struct alignas(64) Cell {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  static constexpr std::size_t kSlots = static_cast<std::size_t>(kMaxRanks) + 1;

  bool enabled_relaxed() const noexcept;
  int n_regions_hint() const noexcept;

  struct Impl;
  Impl* impl_;   // names + interning lock (cold state)
  Cell* cells_;  // kMaxRegions * kSlots, one flat allocation, never moved
};

/// Interns a region path ("BT/x_solve" — '/' expresses the hierarchy).
inline RegionId region(std::string_view path) {
  return ObsRegistry::instance().intern(path);
}

/// RAII region timer.  Attribution rank defaults to the calling thread's
/// team rank.  Construction/destruction cost two wtime() calls when the
/// registry is enabled and nothing at all when it is runtime-disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(RegionId id) noexcept : ScopedTimer(id, thread_rank()) {}
  ScopedTimer(RegionId id, int rank) noexcept
      : id_(id), rank_(rank),
        start_(ObsRegistry::instance().enabled() ? wtime() : -1.0) {}
  ~ScopedTimer() {
    if (start_ >= 0.0)
      ObsRegistry::instance().record(id_, rank_, wtime() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  RegionId id_;
  int rank_;
  double start_;
};

}  // inline namespace enabled

#else  // NPB_OBS_DISABLED

inline constexpr bool kActive = false;

inline namespace disabled {

inline void set_thread_rank(int) noexcept {}
inline int thread_rank() noexcept { return -1; }

class ObsRegistry {
 public:
  static ObsRegistry& instance() noexcept {
    static ObsRegistry r;
    return r;
  }
  RegionId intern(std::string_view) noexcept { return -1; }
  void record(RegionId, int, double) noexcept {}
  void set_enabled(bool) noexcept {}
  bool enabled() const noexcept { return false; }
  void reset() noexcept {}
  Snapshot snapshot() const { return {}; }
};

inline RegionId region(std::string_view) noexcept { return -1; }

class ScopedTimer {
 public:
  explicit ScopedTimer(RegionId) noexcept {}
  ScopedTimer(RegionId, int) noexcept {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

}  // inline namespace disabled

#endif  // NPB_OBS_DISABLED

}  // namespace npb::obs
