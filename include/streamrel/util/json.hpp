#pragma once
// Minimal JSON value + recursive-descent parser — just enough for the
// CLI's batch-query files and test fixtures. Objects preserve insertion
// order (batch files are human-written; diagnostics read better in the
// author's order). Writing stays where it always was: the emitters build
// strings directly (Telemetry::to_json and friends).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace streamrel {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; each throws std::invalid_argument on a kind
  /// mismatch (batch files are user input — a clear message beats UB).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else
/// after the value). Throws std::invalid_argument with a byte offset on
/// malformed input, including arrays/objects nested more than 256 levels
/// deep. Supports the full RFC 8259 grammar except \uXXXX escapes for
/// code points outside ASCII are passed through as-is.
JsonValue parse_json(std::string_view text);

}  // namespace streamrel
