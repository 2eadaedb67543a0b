// Minimal JSON value model, parser, and writer — the wire substrate of
// the query server (server/wire.h) and the JSON release archive format
// (eval/release_io.h). No third-party dependency.
//
// Design constraints, in order:
//   1. Lossless numbers. Integral literals are kept as int64/uint64 (so a
//      uint64 seed survives a round trip bit for bit); doubles are
//      written with the shortest decimal form that parses back to the
//      identical bits — a served Release re-parsed by the test harness
//      compares bit-identical to the in-process one.
//   2. Deterministic output. Objects preserve insertion order and Dump is
//      pure, so golden-file tests can compare serialized bytes.
//   3. Strict, bounded parsing. Malformed input returns kInvalidArgument
//      with position info (never a crash), nesting is depth-limited, and
//      the caller bounds input size (the server's max body check).
//
// Non-finite doubles have no JSON spelling; Dump writes them as `null`
// (documented at the one call site that can produce them: an unlimited
// budget's remaining ε).
#ifndef PRIVBASIS_COMMON_JSON_H_
#define PRIVBASIS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace privbasis::json {

class Value;

/// Object member storage: insertion-ordered (deterministic Dump), linear
/// lookup — wire objects have at most a few dozen keys.
using Member = std::pair<std::string, Value>;

/// One JSON value. Construction is implicit from the natural C++ types;
/// accessors are checked (reading the wrong type returns an error, never
/// UB) because wire input is untrusted.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::vector<Member>;

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}          // NOLINT
  Value(bool b) : data_(b) {}                        // NOLINT
  /// Any integral type, widened to int64 (signed) or uint64 (unsigned) —
  /// one template so size_t/uint32_t/... never hit an ambiguous overload.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Value(T i) {                                       // NOLINT
    if constexpr (std::is_signed_v<T>) {
      data_ = static_cast<int64_t>(i);
    } else {
      data_ = static_cast<uint64_t>(i);
    }
  }
  Value(double d) : data_(d) {}                      // NOLINT
  Value(std::string s) : data_(std::move(s)) {}      // NOLINT
  Value(const char* s) : data_(std::string(s)) {}    // NOLINT
  Value(Array a) : data_(std::move(a)) {}            // NOLINT
  Value(Object o) : data_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }

  // --- checked accessors (wire input is untrusted) ----------------------

  Result<bool> GetBool() const;
  /// Any numeric storage, converted to double.
  Result<double> GetDouble() const;
  /// Integral storage (or a double with an exact integral value) in
  /// [0, 2^64); negative values and fractions fail.
  Result<uint64_t> GetUint() const;
  Result<std::string> GetString() const;
  Result<const Array*> GetArray() const;
  Result<const Object*> GetObject() const;

  // --- object helpers ---------------------------------------------------

  /// Member lookup; nullptr when absent (or when *this is not an object).
  const Value* Find(std::string_view key) const;

  /// Appends a member (object storage is created on a null value).
  void Set(std::string key, Value value);

  /// Serializes compactly (no whitespace). Deterministic: object members
  /// in insertion order, numbers in canonical shortest-round-trip form.
  std::string Dump() const;

  bool operator==(const Value& other) const = default;

 private:
  std::variant<std::nullptr_t, bool, int64_t, uint64_t, double, std::string,
               Array, Object>
      data_;
};

/// Parses one JSON document (object, array, or scalar). Trailing
/// non-whitespace, unterminated literals, bad escapes, and nesting beyond
/// `max_depth` all fail with kInvalidArgument and a byte offset.
Result<Value> Parse(std::string_view text, size_t max_depth = 64);

/// Escapes `s` as a JSON string literal including the surrounding quotes
/// (the building block Dump uses; exposed for ad-hoc emitters).
std::string EscapeString(std::string_view s);

}  // namespace privbasis::json

#endif  // PRIVBASIS_COMMON_JSON_H_
