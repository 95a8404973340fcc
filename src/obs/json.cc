#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"

namespace mivid {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    MIVID_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Each level is a recursion: bound it, or a line of brackets
        // overflows the stack.
        if (depth_ == kMaxJsonDepth) {
          return Error(StrFormat("nesting deeper than %d levels",
                                 kMaxJsonDepth));
        }
        ++depth_;
        Status nested = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return nested;
      }
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseKeyword("null", out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(std::string_view keyword, JsonValue* out) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Error("invalid literal");
    }
    pos_ += keyword.size();
    if (keyword == "null") {
      out->type = JsonValue::Type::kNull;
    } else {
      out->type = JsonValue::Type::kBool;
      out->bool_value = keyword == "true";
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    double value = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &value)) {
      return Error("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out->push_back(escape);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // UTF-8 encode (surrogate pairs are passed through unpaired;
          // the exporters never emit them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out) {
    Consume('[');
    out->type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue element;
      MIVID_RETURN_IF_ERROR(ParseValue(&element));
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out) {
    Consume('{');
    out->type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      MIVID_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      MIVID_RETURN_IF_ERROR(ParseValue(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

namespace {

void SerializeTo(const JsonValue& value, std::string* out) {
  switch (value.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      // Integers within the exactly-representable range print without a
      // fractional part so counters round-trip as written. The range test
      // comes first: converting a larger double to int64_t is undefined.
      const double n = value.number;
      if (std::abs(n) < 9.007199254740992e15 && n == std::trunc(n)) {
        AppendInt(out, static_cast<int64_t>(n));
      } else {
        AppendDouble(out, n);
      }
      break;
    }
    case JsonValue::Type::kString:
      out->push_back('"');
      *out += JsonEscape(value.string);
      out->push_back('"');
      break;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& element : value.array) {
        if (!first) out->push_back(',');
        first = false;
        SerializeTo(element, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        *out += JsonEscape(key);
        *out += "\":";
        SerializeTo(member, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string JsonSerialize(const JsonValue& value) {
  std::string out;
  SerializeTo(value, &out);
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace mivid
