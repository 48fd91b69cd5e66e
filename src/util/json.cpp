#include "streamrel/util/json.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace streamrel {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::invalid_argument("JSON parse error at byte " +
                              std::to_string(offset) + ": " + what);
}

// Deepest array/object nesting accepted. The parser recurses once per
// level, so without a cap a line of a few thousand '[' exhausts the stack.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content after value");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing the value.
  JsonValue parse_value(int depth = 0) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  void check_depth(int depth) const {
    if (depth > kMaxDepth) {
      fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
    }
  }

  JsonValue parse_object(int depth) {
    check_depth(depth);
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    check_depth(depth);
    expect('[');
    JsonValue::Array elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(elements));
    }
    while (true) {
      elements.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(elements));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              fail(pos_ - 1, "bad hex digit in \\u escape");
            }
          }
          if (code > 0x7F) fail(pos_ - 4, "non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail(pos_ - 1, "unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      fail(start, "malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw std::invalid_argument(std::string("JSON value is not a ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_mismatch("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_mismatch("number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_mismatch("string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_mismatch("array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_mismatch("object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace streamrel
