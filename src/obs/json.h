// Minimal JSON document model + recursive-descent parser.
//
// Exists so the observability exports (--metrics-json, --trace) can be
// validated in-process by tests and by tools/check_obs_outputs without an
// external dependency. Handles the full JSON grammar the exporters emit:
// objects, arrays, strings (with escapes), numbers, booleans, null.
// Not a general-purpose library: documents are small (snapshots and
// traces), so everything is parsed eagerly into a DOM.

#ifndef MIVID_OBS_JSON_H_
#define MIVID_OBS_JSON_H_

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mivid {

/// One parsed JSON value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (duplicate keys keep both; Find returns
  /// the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// First member named `key`, or nullptr (also nullptr on non-objects).
  const JsonValue* Find(std::string_view key) const;

  /// The number as an integer of type T, or nullopt unless this is a
  /// number that is integral, finite and inside T's range. The one way
  /// a JSON number becomes an integer: converting any other double is
  /// undefined behaviour. The upper bound is exclusive at 2^digits (2^31
  /// for int, 2^63 for int64_t, 2^64 for uint64_t): for a 64-bit T,
  /// (double)max rounds up to that power of two, so `number <= max`
  /// would accept a value the conversion cannot hold.
  template <typename T>
  std::optional<T> Int() const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    using Limits = std::numeric_limits<T>;
    constexpr double kMin = static_cast<double>(Limits::min());
    constexpr double kEnd = static_cast<double>(Limits::max() / 2 + 1) * 2.0;
    if (type != Type::kNumber || !(number >= kMin && number < kEnd) ||
        number != std::trunc(number)) {
      return std::nullopt;
    }
    return static_cast<T>(number);
  }
};

/// Deepest array/object nesting ParseJson accepts; every document the
/// system writes nests a few levels.
inline constexpr int kMaxJsonDepth = 64;

/// Parses `text` as one JSON document (trailing whitespace allowed,
/// trailing garbage is an error). InvalidArgument for malformed text and
/// for nesting deeper than kMaxJsonDepth.
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
std::string JsonEscape(std::string_view s);

/// Serializes a parsed value back to compact JSON text. Numbers are
/// emitted by AppendDouble (common/string_util.h), the one wire-number
/// writer: %.17g's bytes, round-trip safe for doubles; member and element
/// order is preserved. Used by the trace stitcher to re-emit events it
/// parsed from per-process trace files.
std::string JsonSerialize(const JsonValue& value);

}  // namespace mivid

#endif  // MIVID_OBS_JSON_H_
