#pragma once

// Machine-readable emitters for obs snapshots.  One ObsReport collects the
// snapshots of many benchmark runs (one per table row, typically) and
// serializes them as JSON ({"runs": [...]}) or CSV (one line per region per
// run).  Always compiled — with NPB_OBS_DISABLED the snapshots it receives
// are simply empty.

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace npb::obs {

class ObsReport {
 public:
  /// Appends one run's snapshot, tagged the way bench tables tag rows.
  /// Hybrid shm runs additionally pass the shard count (`procs`) and the
  /// per-process snapshots shipped back over the result pipes; those merge
  /// into the same entry so one report row carries every process.
  void add_run(std::string benchmark, std::string cls, std::string mode,
               int threads, double seconds, Snapshot snap, int procs = 0,
               std::vector<ShardSnapshot> shards = {});

  /// {"runs":[{benchmark, class, mode, threads, seconds,
  ///           team:{run_count, run_span_seconds, dispatch_seconds,
  ///                 barrier_wait_seconds, pipeline_wait_seconds, ...counts},
  ///           regions:[{name, seconds, count, rank_seconds, rank_count}]}]}
  /// Hybrid entries also carry "procs" and a "shards" array whose elements
  /// repeat the team/mem/fault/regions shape per worker process.  The groups
  /// and keys come from kReserved; common/json writes keys in sorted order
  /// and numbers round-trip exact.
  std::string json() const;

  /// Header + one row per (run, region): every kReserved row under its path,
  /// team/loop_imbalance, the user regions, then one shard/N row per worker
  /// process, so the flat file is self-contained.
  std::string csv() const;

  /// Writes json() — or csv() when `path` ends in ".csv" — to `path`.
  /// Returns false (with a stderr note) when the file cannot be written.
  bool write(const std::string& path) const;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::string benchmark, cls, mode;
    int threads = 0;
    double seconds = 0.0;
    Snapshot snap;
    int procs = 0;
    std::vector<ShardSnapshot> shards;
  };
  std::vector<Entry> entries_;
};

}  // namespace npb::obs
