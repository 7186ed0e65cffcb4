#include "common/config.h"

#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"

namespace cimmlc {

ConfigValue
ConfigValue::makeBool(bool v)
{
    ConfigValue out;
    out.type_ = ConfigType::kBool;
    out.bool_value_ = v;
    return out;
}

ConfigValue
ConfigValue::makeNumber(double v)
{
    ConfigValue out;
    out.type_ = ConfigType::kNumber;
    out.number_value_ = v;
    return out;
}

ConfigValue
ConfigValue::makeString(std::string v)
{
    ConfigValue out;
    out.type_ = ConfigType::kString;
    out.string_value_ = std::move(v);
    return out;
}

ConfigValue
ConfigValue::makeArray(Array v)
{
    ConfigValue out;
    out.type_ = ConfigType::kArray;
    out.array_value_ = std::move(v);
    return out;
}

ConfigValue
ConfigValue::makeObject(Object v)
{
    ConfigValue out;
    out.type_ = ConfigType::kObject;
    out.object_value_ = std::move(v);
    return out;
}

bool
ConfigValue::asBool() const
{
    CIMMLC_CHECK(isBool()) << "config value is not a bool";
    return bool_value_;
}

double
ConfigValue::asNumber() const
{
    CIMMLC_CHECK(isNumber()) << "config value is not a number";
    return number_value_;
}

std::int64_t
ConfigValue::asInt() const
{
    return static_cast<std::int64_t>(asNumber());
}

const std::string &
ConfigValue::asString() const
{
    CIMMLC_CHECK(isString()) << "config value is not a string";
    return string_value_;
}

const ConfigValue::Array &
ConfigValue::asArray() const
{
    CIMMLC_CHECK(isArray()) << "config value is not an array";
    return array_value_;
}

const ConfigValue::Object &
ConfigValue::asObject() const
{
    CIMMLC_CHECK(isObject()) << "config value is not an object";
    return object_value_;
}

bool
ConfigValue::has(const std::string &key) const
{
    return isObject() && object_value_.count(key) > 0;
}

StatusOr<ConfigValue>
ConfigValue::get(const std::string &key) const
{
    if (!isObject())
        return failedPrecondition("config value is not an object");
    auto it = object_value_.find(key);
    if (it == object_value_.end())
        return notFound("config key '" + key + "' not found");
    return it->second;
}

double
ConfigValue::getNumberOr(const std::string &key, double fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isNumber() ? v.asNumber() : fallback;
}

std::int64_t
ConfigValue::getIntOr(const std::string &key, std::int64_t fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isNumber() ? v.asInt() : fallback;
}

std::string
ConfigValue::getStringOr(const std::string &key, std::string fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isString() ? v.asString() : fallback;
}

bool
ConfigValue::getBoolOr(const std::string &key, bool fallback) const
{
    if (!has(key))
        return fallback;
    const ConfigValue &v = object_value_.at(key);
    return v.isBool() ? v.asBool() : fallback;
}

namespace {

void
appendEscaped(std::string *out, const std::string &text)
{
    out->push_back('"');
    for (char c : text) {
        switch (c) {
          case '"': out->append("\\\""); break;
          case '\\': out->append("\\\\"); break;
          case '\n': out->append("\\n"); break;
          case '\t': out->append("\\t"); break;
          case '\r': out->append("\\r"); break;
          default: out->push_back(c);
        }
    }
    out->push_back('"');
}

void
appendNumber(std::string *out, double v)
{
    char buf[32];
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9.0e15) {
        const auto end = std::to_chars(buf, buf + sizeof(buf),
                                       static_cast<long long>(v)).ptr;
        out->append(buf, end);
        return;
    }
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    out->append(buf, static_cast<std::size_t>(n));
}

} // namespace

std::string
ConfigValue::dump(bool pretty, int indent) const
{
    std::string out;
    dumpTo(&out, pretty, indent);
    return out;
}

void
ConfigValue::dumpTo(std::string *out, bool pretty, int indent) const
{
    const auto newline = [&](int depth) {
        if (pretty) {
            out->push_back('\n');
            out->append(static_cast<std::size_t>(depth) * 2, ' ');
        }
    };
    switch (type_) {
      case ConfigType::kNull:
        out->append("null");
        return;
      case ConfigType::kBool:
        out->append(bool_value_ ? "true" : "false");
        return;
      case ConfigType::kNumber:
        appendNumber(out, number_value_);
        return;
      case ConfigType::kString:
        appendEscaped(out, string_value_);
        return;
      case ConfigType::kArray: {
        if (array_value_.empty()) {
            out->append("[]");
            return;
        }
        out->push_back('[');
        for (std::size_t i = 0; i < array_value_.size(); ++i) {
            if (i > 0)
                out->push_back(',');
            newline(indent + 1);
            array_value_[i].dumpTo(out, pretty, indent + 1);
        }
        newline(indent);
        out->push_back(']');
        return;
      }
      case ConfigType::kObject: {
        if (object_value_.empty()) {
            out->append("{}");
            return;
        }
        out->push_back('{');
        bool first = true;
        for (const auto &[key, value] : object_value_) {
            if (!first)
                out->push_back(',');
            first = false;
            newline(indent + 1);
            appendEscaped(out, key);
            out->append(pretty ? ": " : ":");
            value.dumpTo(out, pretty, indent + 1);
        }
        newline(indent);
        out->push_back('}');
        return;
      }
    }
}

namespace {

/** Recursive-descent parser over the kvjson grammar. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    StatusOr<ConfigValue>
    parse()
    {
        skipFluff();
        CIMMLC_ASSIGN_OR_RETURN(ConfigValue value, parseValue());
        skipFluff();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return value;
    }

  private:
    Status
    fail(const std::string &what) const
    {
        return parseError(strformat("%s at offset %zu (line %d)",
                                    what.c_str(), pos_, line_));
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    advance()
    {
        if (text_[pos_] == '\n')
            ++line_;
        ++pos_;
    }

    void
    skipFluff()
    {
        while (!atEnd()) {
            char c = peek();
            if (std::isspace(static_cast<unsigned char>(c))) {
                advance();
            } else if (c == '#') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    bool
    consumeLiteral(std::string_view literal)
    {
        if (text_.compare(pos_, literal.size(), literal) != 0)
            return false;
        for (std::size_t i = 0; i < literal.size(); ++i)
            advance();
        return true;
    }

    StatusOr<ConfigValue>
    parseValue()
    {
        if (atEnd())
            return fail("unexpected end of input");
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (consumeLiteral("true"))
            return ConfigValue::makeBool(true);
        if (consumeLiteral("false"))
            return ConfigValue::makeBool(false);
        if (consumeLiteral("null"))
            return ConfigValue::makeNull();
        return parseNumber();
    }

    StatusOr<ConfigValue>
    parseString()
    {
        advance(); // opening quote
        std::string out;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            char c = peek();
            advance();
            if (c == '"')
                break;
            if (c == '\\') {
                if (atEnd())
                    return fail("unterminated escape");
                char e = peek();
                advance();
                switch (e) {
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  default:
                    return fail("unsupported escape sequence");
                }
            } else {
                out.push_back(c);
            }
        }
        return ConfigValue::makeString(std::move(out));
    }

    StatusOr<ConfigValue>
    parseNumber()
    {
        std::size_t start = pos_;
        while (!atEnd() &&
               (std::isdigit(static_cast<unsigned char>(peek())) ||
                peek() == '-' || peek() == '+' || peek() == '.' ||
                peek() == 'e' || peek() == 'E')) {
            advance();
        }
        double value = 0.0;
        if (pos_ == start ||
            !parseDouble(text_.substr(start, pos_ - start), &value)) {
            return fail("malformed number");
        }
        return ConfigValue::makeNumber(value);
    }

    StatusOr<ConfigValue>
    parseArray()
    {
        advance(); // '['
        ConfigValue::Array items;
        skipFluff();
        if (!atEnd() && peek() == ']') {
            advance();
            return ConfigValue::makeArray(std::move(items));
        }
        while (true) {
            skipFluff();
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue item, parseValue());
            items.push_back(std::move(item));
            skipFluff();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == ']') {
                advance();
                return ConfigValue::makeArray(std::move(items));
            }
            return fail("expected ',' or ']' in array");
        }
    }

    StatusOr<ConfigValue>
    parseObject()
    {
        advance(); // '{'
        ConfigValue::Object members;
        skipFluff();
        if (!atEnd() && peek() == '}') {
            advance();
            return ConfigValue::makeObject(std::move(members));
        }
        while (true) {
            skipFluff();
            if (atEnd() || peek() != '"')
                return fail("expected string key in object");
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue key, parseString());
            skipFluff();
            if (atEnd() || peek() != ':')
                return fail("expected ':' after object key");
            advance();
            skipFluff();
            CIMMLC_ASSIGN_OR_RETURN(ConfigValue value, parseValue());
            members[key.asString()] = std::move(value);
            skipFluff();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == '}') {
                advance();
                return ConfigValue::makeObject(std::move(members));
            }
            return fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

} // namespace

StatusOr<ConfigValue>
parseConfig(const std::string &text)
{
    Parser parser(text);
    return parser.parse();
}

StatusOr<ConfigValue>
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return notFound("cannot open config file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto result = parseConfig(buffer.str());
    if (!result.isOk())
        return result.status().withContext(path);
    return result;
}

Status
saveConfigFile(const std::string &path, const ConfigValue &value)
{
    std::ofstream out(path);
    if (!out)
        return invalidArgument("cannot open '" + path + "' for writing");
    out << value.dump(/*pretty=*/true) << "\n";
    if (!out)
        return internalError("write to '" + path + "' failed");
    return Status::ok();
}

Status
saveConfigFileAtomic(const std::string &path, const ConfigValue &value)
{
    // Same-directory temp file: rename(2) is only atomic within one
    // filesystem. The pid suffix keeps two processes snapshotting the
    // same path from clobbering each other's temp files.
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(temp);
        if (!out)
            return invalidArgument("cannot open '" + temp
                                   + "' for writing");
        out << value.dump(/*pretty=*/true) << "\n";
        out.flush();
        if (!out) {
            std::remove(temp.c_str());
            return internalError("write to '" + temp + "' failed");
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return internalError("rename '" + temp + "' -> '" + path
                             + "' failed");
    }
    return Status::ok();
}

} // namespace cimmlc
