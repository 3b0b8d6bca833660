#pragma once

// The one definition of every RunConfig knob.  Each row of option_table()
// names the npbrun flag, the --serve job-spec key (if any), how the value is
// spelled and bounded, the setter into RunConfig and the help line.  npbrun's
// parser, the NDJSON job-spec parser, the bench flag parser and the usage
// synopsis all iterate the table, and validate() holds every cross-field
// rule, so the command line and the service cannot drift apart.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "npb/run.hpp"

namespace npb::svc {

/// How a row's value is spelled on the command line and in a job spec.
enum class OptKind {
  Flag,    ///< bare --flag (--flag=TEXT too if the row has a metavar); bool key
  OnOff,   ///< --flag=on|off; bool key
  Int,     ///< --flag=N and an integer key, both bounded to [lo, hi]
  Enum,    ///< --flag=WORD through a parse_* function; string key
  Bytes,   ///< as Enum, but the key is a non-negative integer (alignment)
  Text,    ///< --flag=TEXT, non-empty; non-empty string key
  Faults,  ///< --flag=SPEC[,SPEC...], repeatable; array-of-SPEC key
};

/// One parsed value as a setter receives it.
struct OptValue {
  bool on = false;        ///< Flag, OnOff
  int n = 0;              ///< Int (bounds fit an int)
  std::string_view text;  ///< Enum, Bytes, Text, one fault SPEC, a Flag's =TEXT
};

/// Cross-field precondition of a row, checked whenever the input names it.
enum class Needs { Nothing, MsgMode, CkptDir };

/// Upper bound of every unbounded Int row: nine decimal digits.
inline constexpr long kMaxOptInt = 999999999;

struct OptionRow {
  const char* flag;     ///< "--threads"
  const char* key;      ///< job-spec key, or nullptr when the flag has none
  OptKind kind;
  const char* metavar;  ///< value spelling in the synopsis ("N", "on|off")
  const char* help;     ///< one-line description
  /// Stores the value into the config; false rejects it (an Enum/Bytes/
  /// Faults text its parse_* function refuses).
  bool (*set)(RunConfig&, const OptValue&);
  long lo = 0;
  long hi = kMaxOptInt;
  Needs needs = Needs::Nothing;
};

/// Bit i set: option_table()[i] appeared in the parsed input.
using GivenRows = std::uint64_t;

std::span<const OptionRow> option_table();
const OptionRow* find_flag(std::string_view flag);  ///< "--threads"
/// Finds the row of a "--flag[=value]" argument; `*value` becomes the text
/// after '=' or nullptr.  nullptr when no row has that flag.
const OptionRow* find_arg(const char* arg, const char** value);
const OptionRow* find_key(std::string_view key);    ///< "threads"
GivenRows row_bit(const OptionRow& row);

/// Sets `*error` (when non-null) to `what`; returns false.  The parsers'
/// shared way to reject.
bool fail(std::string* error, const std::string& what);

/// Strict decimal in [lo, hi]: digits only, at most nine of them.
std::optional<long> parse_bounded(std::string_view s, long lo, long hi);

/// Applies one command-line occurrence of `row`; `value` is the text after
/// '=' or nullptr when the flag had none.  On failure `*error` (if non-null)
/// names the flag and the config is unchanged.
bool apply_flag(const OptionRow& row, const char* value, RunConfig& cfg,
                std::string* error);

/// Applies one job-spec key of `row`, with the same bounds and parse
/// functions as the flag.  On failure `*error` names the key.
bool apply_key(const OptionRow& row, const json::Value& v, RunConfig& cfg,
               std::string* error);

/// Every cross-field rule, shared by npbrun and --serve: the rows' Needs,
/// steal/watchdog under msg, msg mode needing a msg driver, and the
/// checkpoint rules.  `benchmark` is a registry name or "all"; `given` says
/// which rows the input named.  false with `*error` set on a violation.
bool validate(const RunConfig& cfg, std::string_view benchmark,
              GivenRows given, std::string* error);

}  // namespace npb::svc
