#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

/// \file json.hpp
/// Minimal JSON document model for the experiment layer: enough of RFC 8259
/// to (de)serialize ExperimentSpec files without external dependencies.
/// Objects preserve insertion order (specs render back in the order they
/// were written) and reject duplicate keys at parse time; parse errors
/// carry line/column positions.

namespace saga::exp {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null

  [[nodiscard]] static Json boolean(bool value);
  [[nodiscard]] static Json number(double value);
  [[nodiscard]] static Json string(std::string value);
  [[nodiscard]] static Json array(JsonArray items = {});
  [[nodiscard]] static Json object(JsonObject members = {});

  [[nodiscard]] Type type() const noexcept { return static_cast<Type>(value_.index()); }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  /// Typed accessors; throw std::runtime_error naming the actual type on a
  /// mismatch ("expected a string, found a number").
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Non-negative integer-valued number; throws std::invalid_argument
  /// naming `what` (with position context) on negative, fractional, or
  /// overflowing values. Shared by the spec loader and the wire codec so
  /// every count/index field rejects the same malformed inputs the same
  /// way.
  [[nodiscard]] std::uint64_t as_u64(const std::string& what) const;

  /// Object member lookup; null pointer when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Mutable lookup; null pointer when absent (or not an object).
  [[nodiscard]] Json* find(std::string_view key);

  /// Appends or replaces an object member (converts a null document to an
  /// object first; throws on other types).
  void set(std::string key, Json value);

  /// Parses a complete JSON document in time linear in its size; throws
  /// std::runtime_error with "line L, column C" context on malformed input
  /// (numbers follow RFC 8259 strictly: no "+1", "01", ".5" or "1.") or
  /// duplicate keys.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Source position of a parsed value (1-based; 0 when the value was built
  /// programmatically rather than parsed). Lets schema validation report
  /// "at line L, column C" for well-formed-but-invalid values.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  void set_position(std::size_t line, std::size_t column) noexcept {
    line_ = line;
    column_ = column;
  }
  /// " at line L, column C" when the position is known, else "".
  [[nodiscard]] std::string position_suffix() const;

  /// Serializes. indent 0 renders compactly; indent > 0 pretty-prints.
  /// Numbers round-trip exactly (shortest form via std::to_chars).
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  std::variant<std::monostate, bool, double, std::string, JsonArray, JsonObject> value_;
  std::size_t line_ = 0;    // 0 = not from the parser
  std::size_t column_ = 0;

  void write(std::string& out, int indent, int depth) const;
};

/// Rejects members of `object` whose key is not in `allowed`: throws
/// std::invalid_argument naming the key and `context`, the nearest valid key
/// ("did you mean ...?"), every valid key and the object's position. The
/// one key check of every JSON schema here: experiment specs, simulator
/// scenarios, the wire codec and the daemon's request bodies.
void check_keys(const Json& object, const std::vector<std::string>& allowed,
                const std::string& context);

}  // namespace saga::exp
