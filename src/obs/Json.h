//===- obs/Json.h - Minimal JSON value, parser and writer help --*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON layer for the observability subsystem:
/// enough of a recursive-descent parser to validate the Chrome trace
/// files and metrics sidecars this project emits (and to inspect them in
/// tests), plus the key/value field type and the escaping and field
/// rendering helpers the writers share. Not a
/// general-purpose JSON library; numbers are doubles, objects preserve
/// member order.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_JSON_H
#define POLYINJECT_OBS_JSON_H

#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pinj {
namespace obs {

/// One key/value field of a trace span's args or a journal record. Value
/// is stored rendered; IsString selects quoting in the JSON form.
struct Field {
  std::string Key;
  std::string Value;
  bool IsString = true;
};

namespace json {

/// One parsed JSON value.
struct Value {
  enum KindTy { Null, Bool, Number, String, Array, Object };

  KindTy Kind = Null;
  bool BoolVal = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Items;                            ///< Array elements.
  std::vector<std::pair<std::string, Value>> Members;  ///< Object members.

  bool isNull() const { return Kind == Null; }
  bool isBool() const { return Kind == Bool; }
  bool isNumber() const { return Kind == Number; }
  bool isString() const { return Kind == String; }
  bool isArray() const { return Kind == Array; }
  bool isObject() const { return Kind == Object; }

  /// Member \p Key of an object, or null when absent / not an object.
  const Value *find(const std::string &Key) const;
  /// Like find, but returns a Null-kind sentinel instead of nullptr.
  const Value &at(const std::string &Key) const;
};

/// Parses \p Text as one JSON document (trailing garbage is an error).
/// \returns nullopt and sets \p Error on malformed input.
std::optional<Value> parse(const std::string &Text, std::string &Error);

/// Escapes \p S for inclusion inside a JSON string literal (no quotes).
std::string escape(const std::string &S);

/// Appends the escaped form of \p S to \p Out without allocating a
/// temporary (the journal emits thousands of records per second; its
/// serializer builds each line with this).
void escapeTo(std::string &Out, const std::string &S);

/// Appends \p F as one JSON object member, "key":value, with the value
/// quoted and escaped when F.IsString (the trace and journal writers'
/// shared field renderer).
void appendField(std::string &Out, const Field &F);

/// Renders a double the way the writers in this subsystem do: fixed
/// notation, trimmed, never "nan"/"inf" (clamped to 0).
std::string number(double V);

/// \p Value as a field: bools and integers bare, floating point through
/// number(), anything else as a quoted string.
template <class T> Field field(const char *Key, const T &Value) {
  if constexpr (std::is_same_v<T, bool>)
    return {Key, Value ? "true" : "false", false};
  else if constexpr (std::is_floating_point_v<T>)
    return {Key, number(Value), false};
  else if constexpr (std::is_integral_v<T>)
    return {Key, std::to_string(Value), false};
  else
    return {Key, std::string(Value), true};
}

} // namespace json
} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_JSON_H
