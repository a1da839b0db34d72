#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>

namespace sa::util {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string_view what) : text_(text), what_(what) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(what_) + ": " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::String;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type = JsonValue::Type::Bool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_hex4(); break;
        default: fail("bad escape");
      }
    }
  }

  /// A \uXXXX escape. The repository's writers escape only control bytes
  /// (obs::json_escape), so code points beyond ASCII are not decoded.
  char parse_hex4() {
    unsigned code = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [ptr, ec] = std::from_chars(first, last, code, 16);
    if (ec != std::errc() || ptr != first + 4 || code >= 0x80) fail("unsupported \\u escape");
    pos_ += 4;
    return static_cast<char>(code);
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    JsonValue v;
    v.type = JsonValue::Type::Number;
    const auto [ptr, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc() || ptr != last) fail("bad number");
    if (std::string_view(first, pos_ - start).find_first_of(".eE") == std::string_view::npos) {
      std::int64_t negative = 0;
      const auto exact = *first == '-' ? std::from_chars(first, last, negative)
                                       : std::from_chars(first, last, v.integer);
      v.is_integer = exact.ec == std::errc() && exact.ptr == last;
      if (*first == '-') v.integer = static_cast<std::uint64_t>(negative);
    }
    return v;
  }

  std::string_view text_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text, std::string_view what) {
  return Parser(text, what).parse();
}

}  // namespace sa::util
