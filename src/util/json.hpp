// Minimal JSON reader shared by the replayable-artifact formats (the model
// checker's counterexample schedules, the fault-injection campaign's
// reproducer files) and any other tool that consumes its own JSON output.
//
// This is deliberately not a general-purpose JSON library: it parses the
// subset the repository emits (objects, arrays, strings, numbers, bools,
// null), preserves object key order, reads integer tokens exactly (64-bit
// span ids do not survive a double), decodes the \u00XX escapes of control
// bytes, and reports malformed input as std::runtime_error with a byte
// offset. Writers stay hand-rolled at each call site (obs/export.hpp has
// json_escape); only parsing is shared, so the artifact formats and the
// recorder's JSONL cannot drift apart on what "valid" means.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sa::util {

struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  /// Set for a number token without fraction or exponent that fits 64 bits;
  /// `integer` then holds it exactly, as two's complement when negative
  /// (static_cast<std::int64_t> recovers the signed value).
  bool is_integer = false;
  std::uint64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First value under `key` (objects preserve insertion order); null when
  /// absent or when this value is not an object.
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as a single JSON value (trailing garbage is an error).
/// `what` names the document kind in error messages ("schedule JSON",
/// "fault plan JSON", ...). Throws std::runtime_error on malformed input.
JsonValue parse_json(std::string_view text, std::string_view what = "JSON");

}  // namespace sa::util
