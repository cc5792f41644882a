// Shared flat-JSON parsing for the repo's line-oriented schemas.
//
// Three consumers, one grammar: the study journal (one CellRecord per line),
// the obs metric snapshots (one header/metric per line), and the Chrome
// trace merger (one trace event per line).  All of them emit *flat* JSON
// objects — string / number / bool / null values, plus number arrays
// (histogram buckets) and one level of nested objects (trace metadata
// `args`) — so a single strict parser serves every reader and a foreign or
// truncated file fails loudly everywhere with the same diagnostics.
//
// The string and number grammars are deliberately exact RFC 8259: \uXXXX
// escapes decode to real UTF-8 (surrogate pairs included, lone surrogates
// rejected), and numbers reject what JSON rejects ("+1", "01", "1.", ".5",
// interior signs).  `json_valid` is the schema-free companion: a pure
// syntax check over arbitrarily nested JSON, used to validate emitted
// documents (merged traces, crash dumps) without a JSON library.
#pragma once

#include <cctype>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace tdfm::obs {

/// One parsed value of a flat JSON object field.
struct FlatValue {
  enum class Kind { kString, kNumber, kBool, kNull, kNumberArray };
  Kind kind = Kind::kNull;
  std::string str;             ///< kString
  double num = 0.0;            ///< kNumber (also kBool: 1.0 / 0.0)
  std::vector<double> array;   ///< kNumberArray

  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const {
    // Null reads as 0.0 for numeric fields (legacy journal tolerance for
    // non-finite doubles serialised as null).
    return kind == Kind::kNumber || kind == Kind::kNull;
  }

  /// `num` as integer field `key` of type Int, truncated toward zero (null
  /// reads as 0).  Throws ConfigError when the value is outside Int's range,
  /// where a plain static_cast would be undefined behaviour.
  template <typename Int>
  [[nodiscard]] Int as_int(std::string_view key) const {
    return to_int<Int>(num, key);
  }

  /// Every element of a number array, checked as as_int does.
  template <typename Int>
  [[nodiscard]] std::vector<Int> as_ints(std::string_view key) const {
    std::vector<Int> out;
    out.reserve(array.size());
    for (const double v : array) out.push_back(to_int<Int>(v, key));
    return out;
  }

 private:
  template <typename Int>
  static Int to_int(double v, std::string_view key) {
    static_assert(std::is_integral_v<Int>);
    // Truncation lands in range iff min - 1 < v < max + 1.  max + 1 is a
    // power of two, exact as a double; for a signed Int, min - 1 rounds to
    // min itself, and -limit == min is the smallest double that truncates
    // into range.
    constexpr double limit =
        static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
    const bool in_range =
        std::is_signed_v<Int> ? v >= -limit && v < limit : v > -1.0 && v < limit;
    if (!in_range) {
      char text[32];
      std::snprintf(text, sizeof(text), "%g", v);
      throw ConfigError("field '" + std::string(key) + "' value " + text +
                        " is out of its integer range");
    }
    return static_cast<Int>(v);
  }
};

/// Strict parser for one flat JSON object.  Nested objects are flattened
/// into dotted keys ("args.name"); arrays must hold numbers only.  Throws
/// ConfigError ("<context> at byte N: why") on anything structurally off.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view s,
                          std::string context = "flat JSON parse error")
      : s_(s), context_(std::move(context)) {}

  /// Invokes on_field(key, FlatValue) for every (possibly dotted) key.
  template <typename Fn>
  void parse(Fn&& on_field) {
    skip_ws();
    parse_object(std::string(), on_field);
    skip_ws();
    if (!eof()) fail("trailing characters after record");
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
                      peek() == '\n')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  template <typename Fn>
  void parse_object(const std::string& prefix, Fn&& on_field) {
    expect('{');
    skip_ws();
    if (consume('}')) return;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (!prefix.empty()) key = prefix + "." + key;
      skip_ws();
      expect(':');
      skip_ws();
      if (!eof() && peek() == '{') {
        parse_object(key, on_field);
      } else {
        FlatValue v;
        if (!eof() && peek() == '"') {
          v.kind = FlatValue::Kind::kString;
          v.str = parse_string();
        } else if (!eof() && (peek() == 't' || peek() == 'f')) {
          const bool b = consume_literal("true");
          if (!b && !consume_literal("false")) fail("expected boolean");
          v.kind = FlatValue::Kind::kBool;
          v.num = b ? 1.0 : 0.0;
        } else if (consume_literal("null")) {
          v.kind = FlatValue::Kind::kNull;
        } else if (!eof() && peek() == '[') {
          v.kind = FlatValue::Kind::kNumberArray;
          v.array = parse_number_array();
        } else {
          v.kind = FlatValue::Kind::kNumber;
          v.num = parse_number();
        }
        on_field(key, v);
      }
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
  }

  std::vector<double> parse_number_array() {
    expect('[');
    std::vector<double> out;
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      skip_ws();
      out.push_back(parse_number());
      skip_ws();
      if (consume(']')) return out;
      expect(',');
    }
  }

  /// One \uXXXX escape's code unit (the four hex digits after "\u").
  unsigned parse_hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  /// Appends `code` (a Unicode scalar value) as UTF-8.
  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: JSON encodes astral code points as a
            // \uD800-\uDBFF + \uDC00-\uDFFF pair (RFC 8259 §7).
            if (!consume_literal("\\u")) fail("unpaired high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  double parse_number() {
    // Exactly the RFC 8259 grammar:
    //   -? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?
    // A leading '+', a lone '-', "01", "1." or interior signs ("1-2") are
    // rejected here rather than left to stod's laxer locale-aware parse, so
    // foreign files fail loudly, as this parser's contract promises.
    const std::size_t start = pos_;
    const auto digit = [&] { return !eof() && peek() >= '0' && peek() <= '9'; };
    consume('-');
    if (consume('0')) {
      // "0" takes no more integer digits ("01" is not a JSON number).
    } else {
      if (!digit()) fail("expected number");
      while (digit()) ++pos_;
    }
    if (consume('.')) {
      if (!digit()) fail("expected digit after decimal point");
      while (digit()) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digit()) fail("expected exponent digits");
      while (digit()) ++pos_;
    }
    const std::string text(s_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      const double v = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return v;
    } catch (const std::exception&) {
      fail("malformed number '" + text + "'");
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError(context_ + " at byte " + std::to_string(pos_) + ": " +
                      why);
  }

  std::string_view s_;
  std::string context_;
  std::size_t pos_ = 0;
};

namespace detail {

/// Schema-free recursive-descent JSON syntax checker (RFC 8259 minus
/// surrogate-pair validation).  Validation only — no tree is built.
class JsonSyntaxChecker {
 public:
  explicit JsonSyntaxChecker(std::string_view text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = s_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
            ++pos_;
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
    }
    return false;
  }

  bool digits() {
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      return false;
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      ++pos_;
    }
    return true;
  }

  bool number() {
    consume('-');
    if (!digits()) return false;
    if (consume('.') && !digits()) return false;
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// True when `text` is one syntactically valid JSON value (any nesting).
[[nodiscard]] inline bool json_valid(std::string_view text) {
  return detail::JsonSyntaxChecker(text).valid();
}

}  // namespace tdfm::obs
