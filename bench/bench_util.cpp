#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "npb/registry.hpp"
#include "svc/options.hpp"

namespace npb::benchutil {
namespace {

/// The npbrun flags a bench also accepts; each goes through its option-table
/// row, so the benches parse and bound values exactly as npbrun does.
constexpr std::string_view kBenchFlags[] = {
    "--class", "--warmup", "--schedule", "--mem-align", "--first-touch",
    "--huge-pages"};

/// a.threads = "0,1,2", each entry bounded like npbrun's --threads.  A list
/// with any negative, non-numeric or empty entry is rejected whole: it warns
/// and keeps the previous value, like every bad bench flag.
void set_threads(Args& a, const char* spec) {
  const svc::OptionRow& row = *svc::find_flag("--threads");
  std::vector<int> out;
  for (std::string_view rest = spec;;) {
    const std::size_t comma = rest.find(',');
    const auto n = svc::parse_bounded(rest.substr(0, comma), row.lo, row.hi);
    if (!n) {
      std::fprintf(stderr, "ignoring bad thread list '%s'\n", spec);
      return;
    }
    out.push_back(static_cast<int>(*n));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  a.threads = std::move(out);
}

}  // namespace

Args parse(int argc, char** argv, Args defaults) {
  Args a = defaults;
  RunConfig cfg;
  cfg.cls = a.cls;
  cfg.warmup_spins = a.warmup ? kWarmupSpins : 0;
  cfg.schedule = a.schedule;
  cfg.mem = a.mem;
  if (const char* env = std::getenv("NPB_CLASS"))
    svc::apply_flag(*svc::find_flag("--class"), env, cfg, nullptr);
  if (const char* env = std::getenv("NPB_THREADS")) set_threads(a, env);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    const svc::OptionRow* row = svc::find_arg(arg, &value);
    std::string error;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      set_threads(a, arg + 10);
    } else if (std::strncmp(arg, "--obs-report=", 13) == 0) {
      a.obs_report = arg + 13;
    } else if (row == nullptr ||
               std::find(std::begin(kBenchFlags), std::end(kBenchFlags),
                         row->flag) == std::end(kBenchFlags)) {
      std::fprintf(stderr, "ignoring unknown argument '%s'\n", arg);
    } else if (!svc::apply_flag(*row, value, cfg, &error)) {
      // Lenient, unlike npbrun: a bad value warns and keeps the default.
      std::fprintf(stderr, "ignoring %s\n", error.c_str());
    }
  }
  a.cls = cfg.cls;
  a.warmup = cfg.warmup_spins != 0;
  a.schedule = cfg.schedule;
  a.mem = cfg.mem;
  return a;
}

std::string label(const std::string& name, ProblemClass cls) {
  return name + "." + to_string(cls);
}

double timed_run(RunResult (*fn)(const RunConfig&), const RunConfig& cfg,
                 obs::ObsReport* report) {
  const RunResult r =
      report != nullptr ? run_instrumented(fn, cfg) : fn(cfg);
  if (report != nullptr)
    report->add_run(r.name, to_string(r.cls), to_string(r.mode), r.threads,
                    r.seconds, r.obs);
  if (!r.verified) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s.%s %s threads=%d\n%s\n",
                 r.name.c_str(), to_string(r.cls), to_string(r.mode), r.threads,
                 r.verify_detail.c_str());
    return -1.0;
  }
  return r.seconds;
}

void maybe_write_report(const Args& args, const obs::ObsReport& report) {
  if (args.obs_report.empty()) return;
  if (report.write(args.obs_report))
    std::fprintf(stderr, "obs report (%zu runs) -> %s\n", report.size(),
                 args.obs_report.c_str());
}

}  // namespace npb::benchutil
