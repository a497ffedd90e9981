#include "flatjson.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>

namespace hetsim::json
{

namespace
{

/** Cursor over one line; see the header for the accepted grammar. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    std::optional<Object>
    parse(std::string &error)
    {
        Object object;
        skipSpace();
        if (!eat('{')) {
            error = "expected '{'";
            return std::nullopt;
        }
        skipSpace();
        if (eat('}'))
            return finish(object, error);
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key, error))
                return std::nullopt;
            skipSpace();
            if (!eat(':')) {
                error = "expected ':' after key \"" + key + "\"";
                return std::nullopt;
            }
            skipSpace();
            Value value;
            if (!parseValue(value, key, error))
                return std::nullopt;
            if (!object.emplace(key, std::move(value)).second) {
                error = "duplicate key \"" + key + "\"";
                return std::nullopt;
            }
            skipSpace();
            if (eat(','))
                continue;
            if (eat('}'))
                return finish(object, error);
            error = "expected ',' or '}' after value of \"" + key + "\"";
            return std::nullopt;
        }
    }

  private:
    std::optional<Object>
    finish(Object &object, std::string &error)
    {
        skipSpace();
        if (pos != s.size()) {
            error = "trailing characters after object";
            return std::nullopt;
        }
        return std::move(object);
    }

    void
    skipSpace()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    eat(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    /** Decode the four hex digits after "\\u".  Only ASCII code
     *  points are accepted: writeString emits "\\u00xx" for control
     *  bytes and every other byte verbatim. */
    bool
    parseAsciiEscape(std::string &out, std::string &error)
    {
        const std::string hex = s.substr(pos, 4);
        if (hex.size() != 4 ||
            !std::all_of(hex.begin(), hex.end(), [](unsigned char h) {
                return std::isxdigit(h) != 0;
            })) {
            error = "malformed '\\u' escape";
            return false;
        }
        pos += 4;
        const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
        if (code > 0x7f) {
            error = "unsupported non-ASCII '\\u' escape";
            return false;
        }
        out += static_cast<char>(code);
        return true;
    }

    bool
    parseString(std::string &out, std::string &error)
    {
        if (!eat('"')) {
            error = "expected '\"'";
            return false;
        }
        out.clear();
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= s.size())
                    break;
                char esc = s[pos++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u':
                    if (!parseAsciiEscape(out, error))
                        return false;
                    break;
                  default:
                    error = std::string("unsupported escape '\\") +
                            esc + "'";
                    return false;
                }
            } else {
                out += c;
            }
        }
        error = "unterminated string";
        return false;
    }

    bool
    parseValue(Value &value, const std::string &key, std::string &error)
    {
        if (pos >= s.size()) {
            error = "missing value for \"" + key + "\"";
            return false;
        }
        char c = s[pos];
        if (c == '"') {
            value.kind = Value::Kind::String;
            return parseString(value.text, error);
        }
        if (s.compare(pos, 4, "true") == 0) {
            value.kind = Value::Kind::Boolean;
            value.boolean = true;
            pos += 4;
            return true;
        }
        if (s.compare(pos, 5, "false") == 0) {
            value.kind = Value::Kind::Boolean;
            value.boolean = false;
            pos += 5;
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = pos;
            while (pos < s.size() &&
                   (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                    s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                    s[pos] == 'e' || s[pos] == 'E'))
                ++pos;
            value.kind = Value::Kind::Number;
            value.text = s.substr(start, pos - start);
            char *end = nullptr;
            errno = 0;
            value.number = std::strtod(value.text.c_str(), &end);
            if (end != value.text.c_str() + value.text.size()) {
                error = "malformed number '" + value.text + "' for \"" +
                        key + "\"";
                return false;
            }
            // Overflow to +/-inf is a loud error; underflow to a
            // denormal or zero (ERANGE with a tiny result) is accepted
            // as the nearest representable value.
            if (errno == ERANGE &&
                std::fabs(value.number) == HUGE_VAL) {
                error = "number out of range '" + value.text +
                        "' for \"" + key + "\"";
                return false;
            }
            return true;
        }
        error = "unsupported value for \"" + key +
                "\" (want string, number, or boolean)";
        return false;
    }

    const std::string &s;
    size_t pos = 0;
};

} // namespace

std::optional<Object>
parseFlatObject(const std::string &line, std::string &error)
{
    return Parser(line).parse(error);
}

std::optional<u64>
parseU64(const std::string &text)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return static_cast<u64>(v);
}

void
writeString(std::ostream &os, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (const auto byte = static_cast<unsigned char>(c); byte < 0x20)
                os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
            else
                os << c;
        }
    }
    os << '"';
}

} // namespace hetsim::json
