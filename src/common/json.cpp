#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace npb::json {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string number_to_string(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  std::string s(buf);
  // "nan"/"inf" are not JSON; reports should never hold them, but a poisoned
  // checksum can — emit null rather than corrupt the document.
  if (s == "nan" || s == "-nan" || s == "inf" || s == "-inf") return "null";
  return s;
}

namespace {

void dump_to(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    out += number_to_string(v.as_double());
  } else if (v.is_string()) {
    out += '"';
    append_escaped(out, v.as_string());
    out += '"';
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const Value& item : v.items()) {
      if (!first) out += ',';
      first = false;
      dump_to(item, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, val] : v.entries()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_escaped(out, key);
      out += "\":";
      dump_to(val, out);
    }
    out += '}';
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    std::optional<Value> v = parse_value();
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON value");
        v.reset();
      }
    }
    if (!v.has_value() && error != nullptr) *error = error_;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return Value(std::move(*s));
    }
    if (consume_word("true")) return Value(true);
    if (consume_word("false")) return Value(false);
    if (consume_word("null")) return Value(nullptr);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    Value obj = Value::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      std::optional<std::string> key = parse_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Value> val = parse_value();
      if (!val.has_value()) return std::nullopt;
      obj[*key] = std::move(*val);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    Value arr = Value::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      std::optional<Value> val = parse_value();
      if (!val.has_value()) return std::nullopt;
      arr.emplace_back(std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid hex digit in \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for job specs; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    const std::size_t digits_start = pos_;
    bool digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    if (!digits) {
      fail("malformed number");
      return std::nullopt;
    }
    // Strict JSON: no leading zeros ("01" is two tokens, i.e. an error).
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      fail("malformed number (leading zero)");
      return std::nullopt;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) {
        fail("malformed number");
        return std::nullopt;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      bool exp = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) {
        fail("malformed number");
        return std::nullopt;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        // "-0" must stay a negative-zero double, or dump(parse(x)) flips the
        // sign bit of a -0.0 checksum.
        if (i == 0 && negative) return Value(-0.0);
        return Value(static_cast<long long>(i));
      }
      // fall through to double on overflow
    }
    double d = 0.0;
    const std::string owned(tok);
    char* end = nullptr;
    d = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) {
      fail("malformed number");
      return std::nullopt;
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace npb::json
