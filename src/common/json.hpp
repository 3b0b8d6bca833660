#pragma once

// Minimal JSON layer shared by the report emitters and the service job-spec
// reader.  Two properties are load-bearing for the service story and are
// guaranteed here in one place instead of per-emitter:
//
//   * every string is escaped (quotes, backslashes, control characters), so
//     a benchmark name, an error message, or a fault spec can never corrupt
//     a report, and
//   * object keys serialize in sorted order (std::map), so service-level
//     reports are byte-stable across runs and diff cleanly.
//
// The parser accepts standard JSON (objects, arrays, strings, numbers,
// booleans, null) with strict errors — it exists for the newline-delimited
// job specs `npbrun --serve` reads, where a malformed line must be a usage
// error, never a silently defaulted job.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace npb::json {

/// Appends `s` to `out` with JSON string-body escaping ("..."-quoting is the
/// caller's job).  Control characters become \u00XX; quote and backslash are
/// backslash-escaped.
void append_escaped(std::string& out, std::string_view s);

/// Formats a double with the shortest representation that round-trips
/// (tries %.15g, falls back to %.17g), so checksums survive a report
/// round-trip bit-exactly while typical latencies stay readable.
std::string number_to_string(double v);

/// One JSON value.  Objects are std::map-backed, so dump() emits keys in
/// sorted order deterministically.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(long long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(unsigned u) : v_(static_cast<std::int64_t>(u)) {}
  Value(unsigned long u) : v_(static_cast<std::int64_t>(u)) {}
  Value(unsigned long long u) : v_(static_cast<std::int64_t>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const noexcept { return std::holds_alternative<double>(v_); }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const {
    return is_double() ? static_cast<std::int64_t>(std::get<double>(v_))
                       : std::get<std::int64_t>(v_);
  }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<std::int64_t>(v_))
                    : std::get<double>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& items() const { return std::get<Array>(v_); }
  const Object& entries() const { return std::get<Object>(v_); }

  /// Object access: inserts a null member on a mutable object.
  Value& operator[](const std::string& key) { return std::get<Object>(v_)[key]; }
  /// Object lookup: nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    const Object* o = std::get_if<Object>(&v_);
    if (o == nullptr) return nullptr;
    const auto it = o->find(key);
    return it == o->end() ? nullptr : &it->second;
  }

  /// Array append, constructing the element in place; returns it.
  template <class... Args>
  Value& emplace_back(Args&&... args) {
    return std::get<Array>(v_).emplace_back(std::forward<Args>(args)...);
  }

  /// Compact serialization: sorted object keys, escaped strings, no spaces.
  std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

/// Strict parse of one JSON document (trailing garbage is an error).  On
/// failure the optional is empty and `*error` (when non-null) holds a
/// message with the byte offset.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace npb::json
