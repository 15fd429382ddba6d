/**
 * @file
 * A deliberately small recursive-descent JSON parser. Started life
 * verifying that the tracer and sampler emit well-formed output; the
 * experiment runner now also uses it to read campaign records back
 * for --resume. Accepts standard JSON, keeps objects as key/value
 * vectors (order preserved), and reports failure by returning
 * nullptr from parse() -- which is exactly the tolerance resume
 * needs for a record truncated by a mid-write kill.
 */

#ifndef IATSIM_UTIL_JSON_HH
#define IATSIM_UTIL_JSON_HH

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace iat::json {

struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::unique_ptr<Value>> items;
    std::vector<std::pair<std::string, std::unique_ptr<Value>>>
        members;

    const Value *
    find(const std::string &key) const
    {
        for (const auto &m : members)
            if (m.first == key)
                return m.second.get();
        return nullptr;
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    /** Parse the whole input; nullptr on any syntax error or
     *  trailing garbage. */
    std::unique_ptr<Value>
    parse()
    {
        auto v = parseValue();
        skipWs();
        if (!v || pos_ != s_.size())
            return nullptr;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::unique_ptr<Value>
    parseValue()
    {
        skipWs();
        if (pos_ >= s_.size())
            return nullptr;
        switch (s_[pos_]) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default: return parseNumber();
        }
    }

    std::unique_ptr<Value>
    parseNull()
    {
        if (!literal("null"))
            return nullptr;
        return std::make_unique<Value>();
    }

    std::unique_ptr<Value>
    parseBool()
    {
        auto v = std::make_unique<Value>();
        v->kind = Value::Kind::Bool;
        if (literal("true"))
            v->boolean = true;
        else if (literal("false"))
            v->boolean = false;
        else
            return nullptr;
        return v;
    }

    std::unique_ptr<Value>
    parseNumber()
    {
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        const double num = std::strtod(start, &end);
        if (end == start)
            return nullptr;
        pos_ += static_cast<std::size_t>(end - start);
        auto v = std::make_unique<Value>();
        v->kind = Value::Kind::Number;
        v->number = num;
        return v;
    }

    std::unique_ptr<Value>
    parseString()
    {
        if (!consume('"'))
            return nullptr;
        auto v = std::make_unique<Value>();
        v->kind = Value::Kind::String;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return nullptr;
                const char esc = s_[pos_++];
                switch (esc) {
                  case '"': v->string += '"'; break;
                  case '\\': v->string += '\\'; break;
                  case '/': v->string += '/'; break;
                  case 'b': v->string += '\b'; break;
                  case 'f': v->string += '\f'; break;
                  case 'n': v->string += '\n'; break;
                  case 'r': v->string += '\r'; break;
                  case 't': v->string += '\t'; break;
                  case 'u':
                    // Code points are validated, not decoded; the
                    // serializers under test never emit them.
                    if (pos_ + 4 > s_.size())
                        return nullptr;
                    for (int i = 0; i < 4; ++i) {
                        if (!std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i]))) {
                            return nullptr;
                        }
                    }
                    pos_ += 4;
                    v->string += '?';
                    break;
                  default: return nullptr;
                }
            } else {
                v->string += c;
            }
        }
        return nullptr; // unterminated
    }

    std::unique_ptr<Value>
    parseArray()
    {
        if (!consume('['))
            return nullptr;
        auto v = std::make_unique<Value>();
        v->kind = Value::Kind::Array;
        if (consume(']'))
            return v;
        do {
            auto item = parseValue();
            if (!item)
                return nullptr;
            v->items.push_back(std::move(item));
        } while (consume(','));
        if (!consume(']'))
            return nullptr;
        return v;
    }

    std::unique_ptr<Value>
    parseObject()
    {
        if (!consume('{'))
            return nullptr;
        auto v = std::make_unique<Value>();
        v->kind = Value::Kind::Object;
        if (consume('}'))
            return v;
        do {
            auto key = parseString();
            if (!key || !consume(':'))
                return nullptr;
            auto val = parseValue();
            if (!val)
                return nullptr;
            v->members.emplace_back(key->string, std::move(val));
        } while (consume(','));
        if (!consume('}'))
            return nullptr;
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

inline std::unique_ptr<Value>
parse(const std::string &text)
{
    return Parser(text).parse();
}

/** JSON string escaping, quotes added by the caller: quote,
 *  backslash, newline, carriage return and tab get their short
 *  escapes, other control bytes a four-hex-digit unicode escape. The
 *  one escaper behind the tracer, sampler, health records, campaign
 *  records and the service's control replies. */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** A double as a JSON number: %.10g, and 0 for NaN or infinity,
 *  which JSON cannot carry. The one formatter behind the sampler's
 *  rows, health records, the service's control replies and the
 *  cluster hosts' stream records; the trace, campaign records and
 *  cluster digests keep %.17g, which round-trips a double exactly. */
inline std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

} // namespace iat::json

#endif // IATSIM_UTIL_JSON_HH
