#ifndef PERFBENCH_JSON_LITE_H_
#define PERFBENCH_JSON_LITE_H_

// A small JSON reader for the replies the benchmark checks and the
// /metrics documents it reads counters and spans from.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  std::string text;  ///< string contents, or the number's literal text
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// The number as an integer (0 when not an unsigned integer literal).
  uint64_t AsU64() const;
};

/// Parses one JSON document; false on malformed input.
bool ParseJson(std::string_view text, JsonValue* out);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_LITE_H_
