#pragma once

// Job requests for the benchmark service: one JSON object per line
// (newline-delimited JSON), each naming a benchmark plus the same knobs the
// npbrun flags expose: every key is a row of the option table
// (svc/options.hpp), with the flag's bounds and cross-field rules.  Parsing
// is strict — an unknown key, a wrong type, or an invalid value (bad class,
// malformed fault spec) is an error naming the offending key, never a
// silently defaulted job.  Spec schema:
//
//   {"benchmark":"cg","class":"S","threads":2}                    // minimal
//   {"id":"j7","benchmark":"mg","class":"S","mode":"vec",
//    "threads":3,"schedule":"guided","fused":true,
//    "barrier":"spin","align":128,"first_touch":true,
//    "huge_pages":false,"faults":["region:throw:2:1:0"],
//    "watchdog_ms":0,"max_retries":3,"backoff_ms":1,
//    "no_degrade":false}                                          // maximal
//
// "id" defaults to "job-<line>"; "threads" 0 runs the serial path.

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "npb/run.hpp"

namespace npb::svc {

struct JobSpec {
  std::string id;
  std::string benchmark;  ///< registry name (case-insensitive, e.g. "cg")
  RunConfig cfg;          ///< cfg.team is assigned by the scheduler, not here
};

/// Parses one job object.  On failure returns nullopt and sets `error`.
std::optional<JobSpec> parse_job_spec(const json::Value& v, std::string* error);

/// Parses newline-delimited JSON job specs (blank lines and `#` comment
/// lines skipped).  All-or-nothing: any malformed line fails the whole batch
/// with an error naming the line number, so a service load file can never
/// half-run.
std::optional<std::vector<JobSpec>> parse_job_stream(const std::string& text,
                                                     std::string* error);

}  // namespace npb::svc
