// Minimal JSON value model and recursive-descent parser.
//
// The observability layer *writes* JSON by hand (obs/report.h, the
// profiler's Chrome trace export) because emission is hot and append-only;
// this header is the *reading* half — used by tools/mntp_inspect to load
// run reports and profiles back in, and by tests to round-trip what the
// writers produced. It is deliberately small: full JSON per RFC 8259
// minus floating-point corner-case niceties (numbers parse via strtod),
// with integers preserved exactly when they fit in int64.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

namespace mntp::core {

/// A parsed JSON document node. Value type with shared_ptr-backed
/// containers so copies are cheap; parsed documents are read-only.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  /// True for both kInt and kDouble.
  [[nodiscard]] bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_int() const { return type_ == Type::kInt; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Accessors return a neutral default on type mismatch (0, "", empty);
  /// callers validating schemas check type() / has() first.
  [[nodiscard]] bool as_bool() const { return type_ == Type::kBool && bool_; }
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& as_array() const;
  [[nodiscard]] const std::map<std::string, Json>& as_object() const;

  /// Object member lookup; returns a null Json when absent or not an
  /// object (chainable: j["a"]["b"].as_int()).
  [[nodiscard]] const Json& operator[](std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  /// Array element; null Json when out of range.
  [[nodiscard]] const Json& at(std::size_t i) const;
  /// Array/object size; 0 otherwise.
  [[nodiscard]] std::size_t size() const;

  /// A string equal to `s` / an integer equal to `v` (the double 1.0 is
  /// not the integer 1): the comparisons schema checks make.
  [[nodiscard]] bool operator==(std::string_view s) const {
    return type_ == Type::kString && *string_ == s;
  }
  [[nodiscard]] bool operator==(std::int64_t v) const {
    return type_ == Type::kInt && int_ == v;
  }

  /// Deepest container nesting parse() accepts; deeper input is an
  /// error rather than unbounded recursion.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parse a complete document. Trailing non-whitespace is an error.
  [[nodiscard]] static Result<Json> parse(std::string_view text);

  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_int(std::int64_t v);
  static Json make_double(double v);
  static Json make_string(std::string s);
  static Json make_array(std::vector<Json> items);
  static Json make_object(std::map<std::string, Json> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::shared_ptr<const std::string> string_;
  std::shared_ptr<const std::vector<Json>> array_;
  std::shared_ptr<const std::map<std::string, Json>> object_;
};

}  // namespace mntp::core
