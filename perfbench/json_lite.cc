#include "json_lite.h"

#include <charconv>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool Document(JsonValue* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 256;

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          auto [p, ec] =
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4) return false;
          pos_ += 4;
          // Only the ASCII escapes the serializer emits matter here.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return false;
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      out->members.emplace_back();
      if (!String(&out->members.back().first)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!Value(&out->members.back().second, depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

uint64_t JsonValue::AsU64() const {
  uint64_t v = 0;
  if (kind != kNumber) return 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  return ec == std::errc() && p == text.data() + text.size() ? v : 0;
}

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Document(out);
}

}  // namespace perfbench
