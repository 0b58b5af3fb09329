// Minimal JSON value: parse, navigate, canonical dump.
//
// The sweep service speaks newline-delimited JSON (docs/SERVICE.md), so
// it needs a real parser, not just the writer the telemetry layer uses.
// This one is deliberately small — stdlib-only recursive descent over
// the RFC 8259 grammar — and tuned for the service's two invariants:
//
//  * Objects store members in a std::map, so dump() emits keys in byte
//    order: the output is CANONICAL. dump(parse(dump(x))) == dump(x),
//    which is what lets cached result envelopes round-trip through disk
//    byte-identically (result_cache.cpp).
//  * Numbers remember whether they were integral. Integers in int64
//    range, and non-negative ones up to 2^64 - 1 (kUint), print
//    exactly; other numbers print as %.17g, which round-trips doubles
//    exactly. Both are deterministic.
//
// Depth is capped (kMaxDepth) so hostile input can't overflow the
// stack; parse failures return nullopt with a position-tagged message.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace jamelect::service {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,     ///< number that lexed as an integer in int64 range
    kUint,    ///< integer in (int64 max, 2^64 - 1]
    kDouble,  ///< any other number
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Nesting cap for parse(); deeper input is a parse error.
  static constexpr int kMaxDepth = 64;

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(std::uint64_t u)
      : type_(static_cast<std::int64_t>(u) < 0 ? Type::kUint : Type::kInt),
        int_(static_cast<std::int64_t>(u)) {}
  Json(double d) : type_(Type::kDouble), double_(d) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kInt || type_ == Type::kUint ||
           type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_int() const noexcept { return type_ == Type::kInt; }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  // Typed accessors; defaults returned on type mismatch (the service
  // validates shapes explicitly, these never throw).
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
    if (type_ == Type::kInt) return int_;
    if (type_ == Type::kDouble) return static_cast<std::int64_t>(double_);
    return fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    if (type_ == Type::kDouble) return double_;
    if (type_ == Type::kInt) return static_cast<double>(int_);
    if (type_ == Type::kUint) return static_cast<double>(uint_bits());
    return fallback;
  }
  /// The exact value of a non-negative integer literal (kInt >= 0 or
  /// kUint); nullopt for negatives, doubles — even integral ones like
  /// 1e3 — and non-numbers.
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const noexcept {
    if (type_ == Type::kUint || (type_ == Type::kInt && int_ >= 0)) {
      return uint_bits();
    }
    return std::nullopt;
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;  // empty unless kString
  }
  [[nodiscard]] const Array& as_array() const noexcept { return array_; }
  [[nodiscard]] const Object& as_object() const noexcept { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Mutable object member access (creates the member; value must be an
  /// object — call on a default-constructed Json after set_object()).
  void set(const std::string& key, Json value);
  void set_object() { type_ = Type::kObject; }
  void push_back(Json value);
  void set_array() { type_ = Type::kArray; }

  /// Canonical single-line serialization (see file comment).
  [[nodiscard]] std::string dump() const;

  /// Parses one JSON document (surrounding whitespace allowed, trailing
  /// garbage rejected). On failure returns nullopt and, if `error` is
  /// non-null, a "byte <pos>: <reason>" message.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

 private:
  void dump_to(std::string& out) const;
  [[nodiscard]] std::uint64_t uint_bits() const noexcept {
    return static_cast<std::uint64_t>(int_);
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;  ///< kUint keeps its bits here too
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace jamelect::service
