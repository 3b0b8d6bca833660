#include "svc/options.hpp"

#include <cstring>
#include <iterator>
#include <utility>

#include "fault/options.hpp"
#include "irr/irr.hpp"
#include "mem/options.hpp"
#include "msg/msg_suite.hpp"

namespace npb::svc {
namespace {

/// out = parse(v.text) when it parses; false (out untouched) when not.
template <class Parse, class T>
bool parse_into(const OptValue& v, Parse parse, T& out) {
  const auto parsed = parse(v.text);
  if (parsed) out = *parsed;
  return parsed.has_value();
}

std::optional<BarrierKind> parse_barrier(std::string_view s) {
  if (s == "condvar") return BarrierKind::CondVar;
  if (s == "spin") return BarrierKind::SpinSense;
  return std::nullopt;
}

using V = const OptValue&;  // keeps each setter on one line

constexpr OptionRow kRows[] = {
    {"--class", "class", OptKind::Enum, "S|W|A|B|C",
     "problem class (default S)",
     [](RunConfig& c, V v) { return parse_into(v, parse_class, c.cls); }},
    {"--mode", "mode", OptKind::Enum, "native|java|vec|msg",
     "kernel variant; msg runs the message-passing drivers (EP, CG, FT, IS) "
     "as a P-shard x N-thread job",
     [](RunConfig& c, V v) { return parse_into(v, parse_mode, c.mode); }},
    {"--procs", nullptr, OptKind::Int, "P", "msg mode: shard count (default 1)",
     [](RunConfig& c, V v) { c.msg.procs = v.n; return true; },
     1, msg::kMaxShmProcs, Needs::MsgMode},
    {"--transport", nullptr, OptKind::Enum, "inproc|shm",
     "msg mode: shards as threads of this process (inproc, default) or as "
     "forked processes over shared-memory rings (shm; dead shards are blamed "
     "under fault/lost_shard and the run degrades)",
     [](RunConfig& c, V v) {
       return parse_into(v, msg::parse_transport, c.msg.transport);
     },
     0, kMaxOptInt, Needs::MsgMode},
    {"--runtime", "runtime", OptKind::Enum, "spmd|steal",
     "team personality: spmd (default) or the work-stealing task runtime, "
     "which only changes SORT, KNN and GETRF (results verify by invariants)",
     [](RunConfig& c, V v) { return parse_into(v, parse_runtime, c.runtime); }},
    {"--threads", "threads", OptKind::Int, "N",
     "worker threads; 0 (default) runs the serial code path",
     [](RunConfig& c, V v) { c.threads = v.n; return true; }},
    {"--barrier", "barrier", OptKind::Enum, "condvar|spin",
     "team barrier implementation (default condvar)",
     [](RunConfig& c, V v) { return parse_into(v, parse_barrier, c.barrier); }},
    {"--warmup", "warmup", OptKind::Flag, nullptr,
     "prime each worker with the paper's CG warm-up spins",
     [](RunConfig& c, V v) {
       c.warmup_spins = v.on ? kWarmupSpins : 0;
       return true;
     }},
    {"--schedule", "schedule", OptKind::Enum,
     "static|dynamic[,CHUNK]|guided[,MIN_CHUNK]",
     "loop schedule of the CG/IS/MG/EP threaded loops (pseudo-apps keep "
     "static slabs); CHUNK defaults to n/(16*threads), MIN_CHUNK to 1",
     [](RunConfig& c, V v) {
       return parse_into(v, parse_schedule, c.schedule);
     }},
    {"--fused", "fused", OptKind::OnOff, "on|off",
     "on (default): one fused SPMD region per time step; off: one fork/join "
     "per parallel loop (bit-identical checksums either way)",
     [](RunConfig& c, V v) { c.fused = v.on; return true; }},
    {"--mem-align", "align", OptKind::Bytes, "BYTES",
     "allocation alignment, a power of two (K/M suffixes on the flag)",
     [](RunConfig& c, V v) {
       return parse_into(v, mem::parse_alignment, c.mem.alignment);
     }},
    {"--first-touch", "first_touch", OptKind::Flag, nullptr,
     "initialize large arrays on the worker team with the compute schedule",
     [](RunConfig& c, V v) {
       c.mem.placement =
           v.on ? mem::Placement::FirstTouch : mem::Placement::Serial;
       return true;
     }},
    {"--huge-pages", "huge_pages", OptKind::Flag, nullptr,
     "request 2 MiB pages for buffers that large (Linux hint)",
     [](RunConfig& c, V v) { c.mem.huge_pages = v.on; return true; }},
    {"--fault-spec", "faults", OptKind::Faults, "SPEC",
     "inject a deterministic fault, SITE:KIND:STEP:RANK:SEED[:persist] "
     "(repeatable; one flag may carry several comma-separated SPECs)",
     [](RunConfig& c, V v) {
       const auto spec = fault::parse_fault_spec(v.text);
       if (spec) c.fault.specs.push_back(*spec);
       return spec.has_value();
     }},
    {"--watchdog-ms", "watchdog_ms", OptKind::Int, "N",
     "abort a barrier stuck longer than N ms so the step retries (0 = off)",
     [](RunConfig& c, V v) { c.fault.watchdog_ms = v.n; return true; }},
    {"--max-retries", "max_retries", OptKind::Int, "N",
     "per-step retries from the in-memory checkpoint (default 3)",
     [](RunConfig& c, V v) { c.fault.max_retries = v.n; return true; }},
    {"--backoff-ms", "backoff_ms", OptKind::Int, "N",
     "linear backoff between retries (default 1)",
     [](RunConfig& c, V v) { c.fault.backoff_ms = v.n; return true; }},
    {"--no-degrade", "no_degrade", OptKind::Flag, nullptr,
     "fail instead of shrinking the team once retries are exhausted",
     [](RunConfig& c, V v) { c.fault.allow_degraded = !v.on; return true; }},
    {"--ckpt-dir", "ckpt_dir", OptKind::Text, "DIR",
     "durable checkpoints to DIR/<BENCH>-<CLASS>.ckpt (CRC32C-sealed, "
     "fsynced, atomically renamed); SIGINT/SIGTERM flush a final one",
     [](RunConfig& c, V v) { c.ckpt.dir = v.text; return true; }},
    {"--ckpt-every", "ckpt_every", OptKind::Int, "N",
     "checkpoint every Nth step (default 1)",
     [](RunConfig& c, V v) { c.ckpt.every = v.n; return true; },
     1, kMaxOptInt, Needs::CkptDir},
    {"--resume", "resume", OptKind::Flag, "PATH",
     "continue from the checkpoint in --ckpt-dir (or PATH) after validating "
     "it end to end; the result verifies as an uninterrupted run",
     [](RunConfig& c, V v) {
       c.ckpt.resume = v.on;
       if (!v.text.empty()) c.ckpt.resume_path = v.text;
       return true;
     }},
};

static_assert(std::size(kRows) <= 64, "GivenRows holds one bit per row");

/// What a rejected value should have been: the choice list, or a
/// placeholder ("BYTES", "SPEC") explained by the row's help.
std::string want(const OptionRow& row) {
  const std::string_view meta = row.metavar;
  return meta.find('|') != std::string_view::npos
             ? std::string(meta)
             : std::string(meta) + ": " + row.help;
}

std::string int_range(const OptionRow& row) {
  return "in " + std::to_string(row.lo) + ".." + std::to_string(row.hi);
}

/// "--threads" or `--threads ("threads")`: how rule messages name a row.
std::string row_name(const OptionRow& row) {
  std::string s = row.flag;
  if (row.key != nullptr) s += std::string(" (\"") + row.key + "\")";
  return s;
}

}  // namespace

std::span<const OptionRow> option_table() { return kRows; }

const OptionRow* find_flag(std::string_view flag) {
  for (const OptionRow& row : kRows)
    if (flag == row.flag) return &row;
  return nullptr;
}

const OptionRow* find_arg(const char* arg, const char** value) {
  const char* eq = std::strchr(arg, '=');
  *value = eq != nullptr ? eq + 1 : nullptr;
  return find_flag(eq != nullptr ? std::string_view(arg, eq) : arg);
}

const OptionRow* find_key(std::string_view key) {
  for (const OptionRow& row : kRows)
    if (row.key != nullptr && key == row.key) return &row;
  return nullptr;
}

GivenRows row_bit(const OptionRow& row) {
  return GivenRows{1} << (&row - kRows);
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

std::optional<long> parse_bounded(std::string_view s, long lo, long hi) {
  if (s.empty() || s.size() > 9) return std::nullopt;
  long v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return std::nullopt;
    v = v * 10 + (ch - '0');
  }
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

bool apply_flag(const OptionRow& row, const char* value, RunConfig& cfg,
                std::string* error) {
  const std::string flag = row.flag;
  if (row.kind == OptKind::Flag) {
    if (value != nullptr && row.metavar == nullptr)
      return fail(error, flag + " takes no value");
    if (value != nullptr && *value == '\0')
      return fail(error, flag + "= needs a value (" + want(row) + ")");
    return row.set(cfg, OptValue{true, 0, value != nullptr ? value : ""});
  }
  if (value == nullptr || *value == '\0')
    return fail(error, flag + " needs a value (" + want(row) + ")");
  const std::string_view text = value;
  const auto bad = [&](std::string_view v, const std::string& wanted) {
    return fail(error, "bad " + flag + " value '" + std::string(v) +
                           "' (want " + wanted + ")");
  };
  switch (row.kind) {
    case OptKind::OnOff:
      if (text != "on" && text != "off") return bad(text, want(row));
      return row.set(cfg, OptValue{text == "on", 0, {}});
    case OptKind::Int: {
      const auto n = parse_bounded(text, row.lo, row.hi);
      if (!n) return bad(text, "an integer " + int_range(row));
      return row.set(cfg, OptValue{false, static_cast<int>(*n), {}});
    }
    case OptKind::Faults: {
      // A spec's own grammar is all colons, so the comma is unambiguous.
      // Strict: any malformed entry, including an empty one from a stray
      // comma, rejects the whole flag and leaves the config untouched.
      RunConfig next = cfg;
      std::string_view rest = text;
      for (;;) {
        const std::size_t comma = rest.find(',');
        const std::string_view one = rest.substr(0, comma);
        if (!row.set(next, OptValue{false, 0, one})) return bad(one, want(row));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
      cfg = std::move(next);
      return true;
    }
    default:  // Enum, Bytes, Text
      return row.set(cfg, OptValue{false, 0, text}) || bad(text, want(row));
  }
}

bool apply_key(const OptionRow& row, const json::Value& v, RunConfig& cfg,
               std::string* error) {
  const std::string key = std::string("key \"") + row.key + "\"";
  const auto bad = [&](const std::string& text) {
    return fail(error, std::string("bad \"") + row.key + "\" value \"" + text +
                           "\" (want " + want(row) + ")");
  };
  switch (row.kind) {
    case OptKind::Flag:
    case OptKind::OnOff:
      if (!v.is_bool()) return fail(error, key + " must be a boolean");
      return row.set(cfg, OptValue{v.as_bool(), 0, {}});
    case OptKind::Int:
      if (!v.is_int() || v.as_int() < row.lo || v.as_int() > row.hi)
        return fail(error, key + " must be an integer " + int_range(row));
      return row.set(cfg, OptValue{false, static_cast<int>(v.as_int()), {}});
    case OptKind::Bytes: {
      if (!v.is_int() || v.as_int() < 0)
        return fail(error, key + " must be an integer >= 0");
      const std::string text = std::to_string(v.as_int());
      return row.set(cfg, OptValue{false, 0, text}) || bad(text);
    }
    case OptKind::Faults: {
      if (!v.is_array())
        return fail(error, key + " must be an array of spec strings");
      RunConfig next = cfg;
      for (const json::Value& f : v.items()) {
        if (!f.is_string())
          return fail(error, key + " must be an array of spec strings");
        if (!row.set(next, OptValue{false, 0, f.as_string()}))
          return bad(f.as_string());
      }
      cfg = std::move(next);
      return true;
    }
    default:  // Enum, Text
      if (!v.is_string()) return fail(error, key + " must be a string");
      if (row.kind == OptKind::Text && v.as_string().empty())
        return fail(error, key + " must not be empty");
      return row.set(cfg, OptValue{false, 0, v.as_string()}) ||
             bad(v.as_string());
  }
}

bool validate(const RunConfig& cfg, std::string_view benchmark,
              GivenRows given, std::string* error) {
  const bool all = benchmark == "all" || benchmark == "ALL";
  const bool msg_mode = cfg.mode == Mode::Msg;
  for (const OptionRow& row : kRows) {
    if ((given & row_bit(row)) == 0) continue;
    if (row.needs == Needs::MsgMode && !msg_mode)
      return fail(error, std::string(row.flag) + " requires --mode=msg");
    if (row.needs == Needs::CkptDir && cfg.ckpt.dir.empty())
      return fail(error, row_name(row) + " requires " +
                             row_name(*find_flag("--ckpt-dir")));
  }
  if (msg_mode) {
    // The msg drivers dispatch ranks through the Transport layer, which has
    // no task personality and no barrier watchdog: reject the silent no-ops.
    if (cfg.runtime == Runtime::Steal)
      return fail(error, "--runtime=steal is incompatible with --mode=msg "
                         "(the message-passing drivers have no task runtime)");
    if (cfg.fault.watchdog_ms > 0)
      return fail(error, "--watchdog-ms is incompatible with --mode=msg (the "
                         "shard teams run without a barrier watchdog)");
    if (!all && msg::find_msg_benchmark(benchmark) == nullptr)
      return fail(error, "benchmark '" + std::string(benchmark) +
                             "' has no message-passing driver (msg mode runs "
                             "EP, CG, FT or IS)");
  }
  // Durable checkpointing only exists where a StepRunner runs: a threaded
  // shared-memory NPB.  Reject the silent no-op combinations up front.
  if (cfg.ckpt.dir.empty() && !cfg.ckpt.resume) return true;
  if (cfg.ckpt.resume && cfg.ckpt.resume_path.empty() && cfg.ckpt.dir.empty())
    return fail(error, "--resume needs --ckpt-dir to locate the checkpoint "
                       "(or an explicit --resume=PATH)");
  if (cfg.threads < 1)
    return fail(error, "checkpointing requires a threaded run (--threads=N "
                       "with N >= 1); the serial path has no step runner");
  if (msg_mode)
    return fail(error, "checkpointing is incompatible with --mode=msg (shards "
                       "carry their state in per-process memory)");
  if (find_irr_benchmark(benchmark) != nullptr)
    return fail(error, "checkpointing is not supported for the irregular "
                       "workloads (run one of the eight NPBs)");
  if (cfg.ckpt.resume && all)
    return fail(error, "--resume needs a single named benchmark, not 'all' "
                       "(one checkpoint file describes one run)");
  return true;
}

}  // namespace npb::svc
