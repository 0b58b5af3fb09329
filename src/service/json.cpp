#include "service/json.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/manifest.hpp"  // json_escape

namespace jamelect::service {

namespace {

/// Recursive-descent parser over one document.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    auto v = value(0);
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& reason) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "byte " + std::to_string(pos_) + ": " + reason;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value(int depth) {
    if (depth > Json::kMaxDepth) {
      fail("nesting deeper than kMaxDepth");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case 'n':
        if (literal("null")) return Json();
        break;
      case 't':
        if (literal("true")) return Json(true);
        break;
      case 'f':
        if (literal("false")) return Json(false);
        break;
      case '"': return string_value();
      case '[': return array_value(depth);
      case '{': return object_value(depth);
      default: return number_value();
    }
    fail("unrecognized token");
    return std::nullopt;
  }

  std::optional<Json> string_value() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Json(std::move(out));
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) break;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return std::nullopt;
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs land as
          // two 3-byte sequences — fine for the service's ASCII keys).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> number_value() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("expected a number");
      return std::nullopt;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json(static_cast<std::int64_t>(v));
      }
      // Beyond int64: non-negative integers up to 2^64 - 1 stay exact
      // (64-bit seeds); anything larger falls through to double.
      if (text_[start] != '-') {
        errno = 0;
        const unsigned long long uv = std::strtoull(tok.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Json(static_cast<std::uint64_t>(uv));
        }
      }
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number '" + tok + "'");
      return std::nullopt;
    }
    return Json(d);
  }

  std::optional<Json> array_value(int depth) {
    ++pos_;  // '['
    Json::Array items;
    skip_ws();
    if (eat(']')) return Json(std::move(items));
    for (;;) {
      skip_ws();
      auto v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (eat(']')) return Json(std::move(items));
      if (!eat(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> object_value(int depth) {
    ++pos_;  // '{'
    Json::Object members;
    skip_ws();
    if (eat('}')) return Json(std::move(members));
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected string key in object");
        return std::nullopt;
      }
      auto key = string_value();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      skip_ws();
      auto v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      members.insert_or_assign(key->as_string(), std::move(*v));
      skip_ws();
      if (eat('}')) return Json(std::move(members));
      if (!eat(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void Json::set(const std::string& key, Json value) {
  type_ = Type::kObject;
  object_.insert_or_assign(key, std::move(value));
}

void Json::push_back(Json value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Type::kUint: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(uint_bits()));
      out += buf;
      break;
    }
    case Type::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out += buf;
      break;
    }
    case Type::kString:
      out += '"';
      out += obs::json_escape(string_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out += ',';
        v.dump_to(out);
        first = false;
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        out += '"';
        out += obs::json_escape(k);
        out += "\":";
        v.dump_to(out);
        first = false;
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace jamelect::service
