#include "obs/report.hpp"

#include <cstdint>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/json.hpp"

namespace npb::obs {
namespace {

template <class T>
json::Value array_of(const std::vector<T>& v) {
  json::Value a = json::Value::array();
  for (const T x : v) a.emplace_back(x);
  return a;
}

/// The members a run entry and each of its shards share: one object per
/// kReserved group, plus team.loop_imbalance and the user regions.
json::Value snapshot_json(const Snapshot& s) {
  json::Value j = json::Value::object();
  for (const ReservedRegion& r : kReserved) {
    json::Value& g = j[r.group];
    if (g.is_null()) g = json::Value::object();
    if (r.value_key != nullptr) g[r.value_key] = s.*r.value;
    if (r.count_key != nullptr) g[r.count_key] = s.*r.count;
    if (r.rank_values_key != nullptr)
      g[r.rank_values_key] = array_of(s.*r.rank_values);
  }
  j["team"]["loop_imbalance"] = s.loop_imbalance();
  json::Value& regions = j["regions"] = json::Value::array();
  for (const RegionStats& st : s.regions) {
    json::Value& o = regions.emplace_back(json::Value::object());
    o["name"] = st.name;
    o["seconds"] = st.seconds;
    o["count"] = st.count;
    o["rank_seconds"] = array_of(st.rank_seconds);
    o["rank_count"] = array_of(st.rank_count);
  }
  return j;
}

}  // namespace

void ObsReport::add_run(std::string benchmark, std::string cls, std::string mode,
                        int threads, double seconds, Snapshot snap, int procs,
                        std::vector<ShardSnapshot> shards) {
  entries_.push_back(Entry{std::move(benchmark), std::move(cls), std::move(mode),
                           threads, seconds, std::move(snap), procs,
                           std::move(shards)});
}

std::string ObsReport::json() const {
  json::Value runs = json::Value::array();
  for (const Entry& en : entries_) {
    json::Value& run = runs.emplace_back(snapshot_json(en.snap));
    run["benchmark"] = en.benchmark;
    run["class"] = en.cls;
    run["mode"] = en.mode;
    run["threads"] = en.threads;
    run["seconds"] = en.seconds;
    if (en.procs > 0) run["procs"] = en.procs;
    if (en.shards.empty()) continue;
    json::Value& shards = run["shards"] = json::Value::array();
    for (const ShardSnapshot& sh : en.shards) {
      json::Value& shard = shards.emplace_back(snapshot_json(sh.snap));
      shard["rank"] = sh.rank;
      shard["seconds"] = sh.seconds;
    }
  }
  json::Value doc = json::Value::object();
  doc["runs"] = std::move(runs);
  return doc.dump();
}

std::string ObsReport::csv() const {
  std::string out = "benchmark,class,mode,threads,run_seconds,region,seconds,count\n";
  auto row = [&out](const Entry& en, std::string_view region, double seconds,
                    std::uint64_t count) {
    out += en.benchmark + ',' + en.cls + ',' + en.mode + ',' +
           std::to_string(en.threads) + ',' + json::number_to_string(en.seconds) +
           ',';
    out += region;
    out += ',' + json::number_to_string(seconds) + ',' + std::to_string(count) +
           '\n';
  };
  for (const Entry& en : entries_) {
    const Snapshot& s = en.snap;
    for (const ReservedRegion& r : kReserved) row(en, r.path, s.*r.value, s.*r.count);
    // Makes the flat file self-contained for schedule tables.
    row(en, "team/loop_imbalance", s.loop_imbalance(), s.loop_record_count);
    for (const RegionStats& st : s.regions) row(en, st.name, st.seconds, st.count);
    // One summary row per worker process of a hybrid run; the full per-shard
    // breakdown lives in the JSON emitter.
    for (const ShardSnapshot& sh : en.shards)
      row(en, "shard/" + std::to_string(sh.rank), sh.seconds, 1);
  }
  return out;
}

bool ObsReport::write(const std::string& path) const {
  const bool as_csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = as_csv ? csv() : json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write report to '%s'\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to '%s'\n", path.c_str());
  return ok;
}

}  // namespace npb::obs
