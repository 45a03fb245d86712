// Minimal JSON DOM: parse-only, no external dependency.
//
// The observability layer writes its artifacts (Perfetto traces,
// SolveReports, BENCH_*.json) as hand-formatted JSON; the analysis tools
// (`dnc trace --load`, `dnc compare`) need to read them back.
// This is a strict recursive-descent parser for that round trip: full
// value model, escape handling, bounded nesting depth, byte-offset error
// reporting. It is not a streaming parser -- our artifacts are at most a
// few MB -- and it does not write JSON (the writers keep their explicit
// formatting so the artifacts stay diffable).
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dnc::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered; duplicate keys keep the first occurrence on lookup.
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  // Typed accessors with a fallback, tolerant of missing/mistyped members
  // so readers degrade gracefully on foreign or older artifacts.
  double number_or(double dflt) const { return is_number() ? number : dflt; }
  bool bool_or(bool dflt) const { return is_bool() ? boolean : dflt; }
  const std::string& string_or(const std::string& dflt) const {
    return is_string() ? string : dflt;
  }
  double member_number(const std::string& key, double dflt) const;
  std::string member_string(const std::string& key, const std::string& dflt) const;
};

/// Parses `text` (a single JSON value, surrounding whitespace allowed).
/// Returns false on malformed input; `err` (optional) gets a one-line
/// message with the byte offset of the failure.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

/// Integer member `field` of `obj` (`dflt` when absent or not a number),
/// as an Int no smaller than `lo`. When `obj` is itself a number -- an array
/// element -- that number is read and `field` only names it. A value outside
/// [lo, max of Int] fails with an error naming the field (when `err` is
/// given) instead of an out-of-range cast, which is undefined behaviour; a
/// fraction truncates toward zero.
template <class Int>
bool int_member(const Value& obj, const char* field, std::type_identity_t<Int> dflt,
                std::type_identity_t<Int> lo, Int& out, std::string* err) {
  static_assert(std::is_integral_v<Int>);
  const double v =
      obj.is_number() ? obj.number : obj.member_number(field, static_cast<double>(dflt));
  // 2^digits is the first value past the type's maximum, and exact in a
  // double; the maximum itself need not be (INT64_MAX is not).
  if (!(v >= static_cast<double>(lo) && v < std::ldexp(1.0, std::numeric_limits<Int>::digits))) {
    if (err) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "\"%s\" value %.17g out of range", field, v);
      *err = buf;
    }
    return false;
  }
  out = static_cast<Int>(v);
  return true;
}

/// Convenience: reads the file and parses it. A missing/unreadable file is
/// reported through `err` like a parse failure.
bool parse_file(const std::string& path, Value& out, std::string* err = nullptr);

}  // namespace dnc::json
