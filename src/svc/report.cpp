#include "svc/report.hpp"

#include <cstdio>

#include "common/classes.hpp"
#include "common/mode.hpp"
#include "par/schedule.hpp"

namespace npb::svc {

json::Value job_json(const JobOutcome& out) {
  json::Value j = json::Value::object();
  j["id"] = out.spec.id;
  j["benchmark"] = out.spec.benchmark;
  j["class"] = to_string(out.spec.cfg.cls);
  j["mode"] = to_string(out.spec.cfg.mode);
  j["threads"] = out.spec.cfg.threads;
  j["schedule"] = to_string(out.spec.cfg.schedule);
  j["fused"] = out.spec.cfg.fused;
  j["completed"] = out.completed;
  j["verified"] = out.verified;
  if (!out.error.empty()) j["error"] = out.error;
  j["queue_seconds"] = out.queue_seconds;
  j["run_seconds"] = out.run_seconds;
  j["pooled_team"] = out.pooled_team;
  j["faults_injected"] = out.faults_injected;
  j["degraded_width"] = out.degraded_width;
  if (out.completed) {
    j["mops"] = out.result.mops;
    json::Value sums = json::Value::array();
    for (const double c : out.result.checksums) sums.emplace_back(c);
    j["checksums"] = std::move(sums);
  }
  return j;
}

json::Value service_json(const std::vector<JobOutcome>& outcomes,
                         const ServiceStats& stats) {
  json::Value jobs = json::Value::array();
  for (const JobOutcome& out : outcomes) jobs.emplace_back(job_json(out));

  json::Value svc = json::Value::object();
  svc["jobs_submitted"] = stats.jobs_submitted;
  svc["jobs_rejected"] = stats.jobs_rejected;
  svc["jobs_completed"] = stats.jobs_completed;
  svc["jobs_failed"] = stats.jobs_failed;
  svc["jobs_unverified"] = stats.jobs_unverified;
  svc["jobs_degraded"] = stats.jobs_degraded;
  svc["max_queue_depth"] = stats.max_queue_depth;
  svc["pool_width"] = stats.pool_width;
  svc["peak_width_in_use"] = stats.peak_width_in_use;
  svc["wall_seconds"] = stats.wall_seconds;
  svc["width_seconds"] = stats.width_seconds;
  svc["team_utilization"] =
      stats.pool_width > 0 && stats.wall_seconds > 0.0
          ? stats.width_seconds /
                (static_cast<double>(stats.pool_width) * stats.wall_seconds)
          : 0.0;
  svc["latency_p50_seconds"] = stats.latency_p50;
  svc["latency_p99_seconds"] = stats.latency_p99;
  svc["pool_checkouts"] = stats.pool.checkouts;
  svc["pool_checkins"] = stats.pool.checkins;
  svc["pool_warm_hits"] = stats.pool.warm_hits;
  svc["pool_rebuilds"] = stats.pool.rebuilds;
  svc["pool_builds"] = stats.pool.builds;

  json::Value doc = json::Value::object();
  doc["jobs"] = std::move(jobs);
  doc["service"] = std::move(svc);
  return doc;
}

bool write_json(const json::Value& v, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = v.dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace npb::svc
