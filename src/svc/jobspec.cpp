#include "svc/jobspec.hpp"

#include "irr/irr.hpp"
#include "npb/registry.hpp"
#include "svc/options.hpp"

namespace npb::svc {
namespace {

bool want_string(const json::Value& v, const char* key, std::string* error) {
  if (v.is_string()) return true;
  return fail(error, std::string("key \"") + key + "\" must be a string");
}

}  // namespace

std::optional<JobSpec> parse_job_spec(const json::Value& v,
                                      std::string* error) {
  if (!v.is_object()) {
    fail(error, "job spec must be a JSON object");
    return std::nullopt;
  }
  JobSpec spec;
  bool have_benchmark = false;
  GivenRows given = 0;
  for (const auto& [key, val] : v.entries()) {
    if (key == "id") {
      if (!want_string(val, "id", error)) return std::nullopt;
      spec.id = val.as_string();
    } else if (key == "benchmark") {
      if (!want_string(val, "benchmark", error)) return std::nullopt;
      spec.benchmark = val.as_string();
      if (find_benchmark(spec.benchmark) == nullptr &&
          find_irr_benchmark(spec.benchmark) == nullptr) {
        fail(error, "unknown benchmark \"" + spec.benchmark + "\"");
        return std::nullopt;
      }
      have_benchmark = true;
    } else if (const OptionRow* row = find_key(key)) {
      if (!apply_key(*row, val, spec.cfg, error)) return std::nullopt;
      given |= row_bit(*row);
    } else {
      fail(error, "unknown key \"" + key + "\"");
      return std::nullopt;
    }
  }
  if (!have_benchmark) {
    fail(error, "missing required key \"benchmark\"");
    return std::nullopt;
  }
  if (spec.cfg.mode == Mode::Msg) {
    fail(error,
         "mode \"msg\" is not schedulable as a service job (it forks "
         "worker processes; run it via npbrun --mode=msg instead)");
    return std::nullopt;
  }
  if (!validate(spec.cfg, spec.benchmark, given, error)) return std::nullopt;
  return spec;
}

std::optional<std::vector<JobSpec>> parse_job_stream(const std::string& text,
                                                     std::string* error) {
  std::vector<JobSpec> specs;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string err;
    const auto doc = json::parse(line, &err);
    if (!doc) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    auto spec = parse_job_spec(*doc, &err);
    if (!spec) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    if (spec->id.empty()) spec->id = "job-" + std::to_string(line_no);
    specs.push_back(std::move(*spec));
  }
  return specs;
}

}  // namespace npb::svc
