#include "svc/cli.hpp"

#include <cstring>
#include <string_view>

#include "irr/irr.hpp"
#include "npb/registry.hpp"
#include "svc/options.hpp"

namespace npb::svc {
namespace {

/// "1,2,2,3" -> {1,2,2,3}; widths 0..32 (0 = a serial slot).
bool parse_pool_widths(const char* s, std::vector<int>& out,
                       std::string* error) {
  out.clear();
  std::string tok;
  for (const char* p = s;; ++p) {
    if (*p != '\0' && *p != ',') {
      tok += *p;
      continue;
    }
    const auto w = parse_bounded(tok, 0, 32);
    if (!w)
      return fail(error,
                  "bad pool width '" + tok + "' (want 0..32, comma-separated)");
    out.push_back(static_cast<int>(*w));
    tok.clear();
    if (*p == '\0') break;
  }
  return !out.empty();
}

bool parse_serve_args(int argc, const char* const* argv, CliOptions& opts,
                      std::string* error) {
  opts.action = CliOptions::Action::Serve;
  const char* first = argv[1];
  if (std::strncmp(first, "--serve=", 8) == 0) opts.serve_input = first + 8;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--pool=", 7) == 0) {
      if (!parse_pool_widths(a + 7, opts.pool_widths, error)) {
        if (error != nullptr && error->empty())
          *error = "bad pool spec '" + std::string(a + 7) + "'";
        return false;
      }
    } else if (std::strncmp(a, "--queue-cap=", 12) == 0) {
      const auto v = parse_bounded(a + 12, 1, kMaxOptInt);
      if (!v)
        return fail(error, "bad queue capacity '" + std::string(a + 12) +
                               "' (want a number >= 1)");
      opts.queue_capacity = static_cast<std::size_t>(*v);
    } else if (std::strncmp(a, "--service-report=", 17) == 0) {
      opts.service_report = a + 17;
    } else if (std::strcmp(a, "--verbose") == 0) {
      opts.verbose = true;
    } else {
      return fail(error, "unknown --serve argument '" + std::string(a) + "'");
    }
  }
  return true;
}

/// One synopsis entry: "--class=S|W|A|B|C", "--warmup", "--resume[=PATH]".
std::string synopsis(const OptionRow& row) {
  std::string s = row.flag;
  if (row.kind == OptKind::Flag)
    return row.metavar == nullptr ? s : s + "[=" + row.metavar + "]";
  return s + "=" + row.metavar;
}

/// Appends "  SYNOPSIS  ("key")" and the help text wrapped under it.
void add_help(std::string& out, const std::string& syn, const char* key,
              std::string_view help) {
  out += "  " + syn;
  if (key != nullptr) out += std::string("  (\"") + key + "\")";
  std::size_t col = 80;  // force a line break before the first word
  while (!help.empty()) {
    const std::size_t sp = help.find(' ');
    const std::string_view word = help.substr(0, sp);
    if (col + 1 + word.size() > 78) {
      out += "\n     ";
      col = 5;
    }
    out += ' ';
    out += word;
    col += 1 + word.size();
    help.remove_prefix(sp == std::string_view::npos ? help.size() : sp + 1);
  }
  out += '\n';
}

}  // namespace

std::string usage_text() {
  std::string s =
      "usage: npbrun <benchmark|all> [OPTION...]\n"
      "       npbrun --serve[=JOBS.ndjson] [--pool=W,W,...] [--queue-cap=N]\n"
      "              [--service-report=FILE] [--verbose]\n"
      "options (a quoted name is the same knob as a --serve job-spec key):\n";
  for (const OptionRow& row : option_table())
    add_help(s, synopsis(row), row.key, row.help);
  add_help(s, "--verbose", nullptr, "print each run's verification detail");
  add_help(s, "--obs-report=FILE", nullptr,
           "write region timers and team counters (JSON, or CSV for *.csv)");
  s +=
      "SPEC: SITE is barrier|region|collective|queue|reduce|alloc|proc|steal|"
      "ckpt|*,\nKIND throw|delay(MS)|nan-poison|alloc-fail|kill|corrupt (kill "
      "needs site proc,\ncorrupt site ckpt or proc), STEP/RANK a number or *, "
      "SEED the 0-based\ncrossing of the site that fires.\n"
      "--serve reads one JSON job spec per line (file or stdin), runs them\n"
      "concurrently on a pooled team runtime, and emits a service JSON.\n"
      "Exit codes: 0 verified, 1 verification failed, 2 usage error, 3 could\n"
      "not run or recover, 4 interrupted but checkpointed (resumable).\n";
  return s;
}

std::optional<CliOptions> parse_npbrun_args(int argc, const char* const* argv,
                                            std::string* error) {
  if (error != nullptr) error->clear();
  if (argc < 2) {
    fail(error, "");
    return std::nullopt;
  }
  CliOptions opts;

  if (std::strcmp(argv[1], "--serve") == 0 ||
      std::strncmp(argv[1], "--serve=", 8) == 0) {
    if (!parse_serve_args(argc, argv, opts, error)) return std::nullopt;
    return opts;
  }

  opts.which = argv[1];
  if (opts.which != "all" && opts.which != "ALL" &&
      find_benchmark(opts.which) == nullptr &&
      find_irr_benchmark(opts.which) == nullptr) {
    fail(error, "unknown benchmark '" + opts.which + "'");
    return std::nullopt;
  }
  GivenRows given = 0;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--verbose") == 0) {
      opts.verbose = true;
      continue;
    }
    if (std::strncmp(a, "--obs-report=", 13) == 0) {
      opts.obs_report = a + 13;
      continue;
    }
    const char* value = nullptr;
    const OptionRow* row = find_arg(a, &value);
    if (row == nullptr) {
      fail(error, "unknown argument '" + std::string(a) + "'");
      return std::nullopt;
    }
    if (!apply_flag(*row, value, opts.cfg, error)) return std::nullopt;
    given |= row_bit(*row);
  }
  if (!validate(opts.cfg, opts.which, given, error)) return std::nullopt;
  return opts;
}

}  // namespace npb::svc
