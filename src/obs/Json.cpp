//===- obs/Json.cpp -------------------------------------------------------===//

#include "obs/Json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pinj::obs;
using namespace pinj::obs::json;

const Value *Value::find(const std::string &Key) const {
  if (Kind != Object)
    return nullptr;
  for (const auto &[Name, Member] : Members)
    if (Name == Key)
      return &Member;
  return nullptr;
}

const Value &Value::at(const std::string &Key) const {
  static const Value NullValue;
  const Value *V = find(Key);
  return V ? *V : NullValue;
}

namespace {

/// Recursive-descent parser over the input text.
class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  std::optional<Value> run() {
    Value Result;
    if (!parseValue(Result, 0))
      return std::nullopt;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after JSON document");
    return Result;
  }

private:
  std::nullopt_t fail(const std::string &Message) {
    Error = Message + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skipSpace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return false;
    }
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Out, Depth);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '"') {
      Out.Kind = Value::String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      if (!literal("true")) {
        fail("invalid literal");
        return false;
      }
      Out.Kind = Value::Bool;
      Out.BoolVal = true;
      return true;
    }
    if (C == 'f') {
      if (!literal("false")) {
        fail("invalid literal");
        return false;
      }
      Out.Kind = Value::Bool;
      Out.BoolVal = false;
      return true;
    }
    if (C == 'n') {
      if (!literal("null")) {
        fail("invalid literal");
        return false;
      }
      Out.Kind = Value::Null;
      return true;
    }
    return parseNumber(Out);
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a value");
      return false;
    }
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double V = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size()) {
      Pos = Start;
      fail("malformed number");
      return false;
    }
    // JSON numbers have no infinity; a literal that overflows double
    // ("1e999") would otherwise leak ±inf into consumers that assume
    // finite values (percentile math, regression thresholds).
    if (!std::isfinite(V)) {
      Pos = Start;
      fail("number out of range");
      return false;
    }
    Out.Kind = Value::Number;
    Out.Num = V;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // Opening quote.
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':  Out += '"';  break;
      case '\\': Out += '\\'; break;
      case '/':  Out += '/';  break;
      case 'b':  Out += '\b'; break;
      case 'f':  Out += '\f'; break;
      case 'n':  Out += '\n'; break;
      case 'r':  Out += '\r'; break;
      case 't':  Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size()) {
          fail("truncated \\u escape");
          return false;
        }
        unsigned Code = 0;
        for (unsigned I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else {
            fail("invalid \\u escape");
            return false;
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through as two 3-byte sequences; good enough for validation).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        fail("invalid escape character");
        return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parseArray(Value &Out, unsigned Depth) {
    ++Pos; // '['.
    Out.Kind = Value::Array;
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      Value Item;
      if (!parseValue(Item, Depth + 1))
        return false;
      Out.Items.push_back(std::move(Item));
      skipSpace();
      if (Pos >= Text.size()) {
        fail("unterminated array");
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parseObject(Value &Out, unsigned Depth) {
    ++Pos; // '{'.
    Out.Kind = Value::Object;
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail("expected a string key in object");
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':') {
        fail("expected ':' in object");
        return false;
      }
      ++Pos;
      Value Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Member));
      skipSpace();
      if (Pos >= Text.size()) {
        fail("unterminated object");
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  static constexpr unsigned MaxDepth = 256;
  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

std::optional<Value> pinj::obs::json::parse(const std::string &Text,
                                            std::string &Error) {
  return Parser(Text, Error).run();
}

std::string pinj::obs::json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  escapeTo(Out, S);
  return Out;
}

void pinj::obs::json::escapeTo(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b";  break;
    case '\f': Out += "\\f";  break;
    case '\n': Out += "\\n";  break;
    case '\r': Out += "\\r";  break;
    case '\t': Out += "\\t";  break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void pinj::obs::json::appendField(std::string &Out, const Field &F) {
  Out += '"';
  escapeTo(Out, F.Key);
  Out += "\":";
  if (F.IsString) {
    Out += '"';
    escapeTo(Out, F.Value);
    Out += '"';
  } else {
    Out += F.Value;
  }
}

std::string pinj::obs::json::number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  // Trim trailing zeros (keep at least one digit after the point).
  std::string Out = Buf;
  size_t Dot = Out.find('.');
  if (Dot != std::string::npos) {
    size_t Last = Out.find_last_not_of('0');
    Out.erase(std::max(Last, Dot + 1) + 1);
  }
  return Out;
}
