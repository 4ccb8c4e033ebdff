#include "support/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"
#include "support/strings.hh"

namespace elag {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
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
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

// --- reader ----------------------------------------------------------

namespace {

/**
 * Recursive-descent JSON reader: the one grammar walk behind every
 * reading function below. It validates, marks where each value's text
 * begins and ends, decodes strings on request, collects the members
 * (items) of a top-level object (array), and can note the first member
 * named `wanted` at any depth.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text, size_t start = 0)
        : s(text), pos(start)
    {}

    /**
     * Read the whole text as one value with optional surrounding
     * whitespace. With @p members (@p items) set, the value must be an
     * object (array), whose top-level members (items) are appended.
     */
    bool
    document(std::vector<JsonMember> *members = nullptr,
             std::vector<std::string> *items = nullptr)
    {
        skipWs();
        bool ok = members ? peek() == '{' && object(members)
                  : items ? peek() == '[' && array(items)
                          : value();
        if (!ok)
            return false;
        skipWs();
        return pos == s.size();
    }

    /** A string literal at the cursor; decoded into @p out if set. */
    bool
    string(std::string *out)
    {
        if (peek() != '"')
            return false;
        ++pos;
        if (out)
            out->clear();
        for (;;) {
            size_t run = pos;
            while (pos < s.size() && s[pos] != '"' && s[pos] != '\\' &&
                   static_cast<unsigned char>(s[pos]) >= 0x20) {
                ++pos;
            }
            if (out)
                out->append(s, run, pos - run);
            if (pos >= s.size())
                return false; // unterminated
            char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\')
                return false; // raw control character
            if (pos >= s.size())
                return false;
            char decoded;
            switch (s[pos++]) {
              case '"': decoded = '"'; break;
              case '\\': decoded = '\\'; break;
              case '/': decoded = '/'; break;
              case 'b': decoded = '\b'; break;
              case 'f': decoded = '\f'; break;
              case 'n': decoded = '\n'; break;
              case 'r': decoded = '\r'; break;
              case 't': decoded = '\t'; break;
              case 'u': {
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i, ++pos) {
                    int digit = pos < s.size() ? hexDigit(s[pos]) : -1;
                    if (digit < 0)
                        return false;
                    cp = cp << 4 | static_cast<unsigned>(digit);
                }
                // Our documents are ASCII; keep non-ASCII escapes as a
                // replacement byte rather than growing a UTF-8 encoder.
                decoded = cp < 0x80 ? static_cast<char>(cp) : '?';
                break;
              }
              default:
                return false;
            }
            if (out)
                *out += decoded;
        }
    }

    bool
    number()
    {
        if (peek() == '-')
            ++pos;
        if (!std::isdigit(peekByte()))
            return false;
        if (s[pos] == '0')
            ++pos;
        else
            while (std::isdigit(peekByte()))
                ++pos;
        if (peek() == '.') {
            ++pos;
            if (!std::isdigit(peekByte()))
                return false;
            while (std::isdigit(peekByte()))
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            if (!std::isdigit(peekByte()))
                return false;
            while (std::isdigit(peekByte()))
                ++pos;
        }
        return true;
    }

    size_t position() const { return pos; }

    /** Member key whose first occurrence value() notes, if set. */
    const std::string *wanted = nullptr;
    bool found = false;
    /** Text span of that member's value, once found. */
    size_t foundBegin = 0, foundEnd = 0;

  private:
    bool
    value()
    {
        if (depth > 256 || pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return object(nullptr);
          case '[':
            return array(nullptr);
          case '"':
            return string(nullptr);
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object(std::vector<JsonMember> *members)
    {
        ++depth;
        ++pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos;
            --depth;
            return true;
        }
        std::string key;
        for (;;) {
            skipWs();
            bool decode = members || (wanted && !found);
            if (!string(decode ? &key : nullptr))
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            // Claim the match before descending: a same-named member
            // nested inside this value comes later in document order.
            bool match = wanted && !found && key == *wanted;
            if (match) {
                found = true;
                foundBegin = pos;
            }
            size_t begin = pos;
            if (!value())
                return false;
            if (match)
                foundEnd = pos;
            if (members)
                members->push_back({key, s.substr(begin, pos - begin)});
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                --depth;
                return true;
            }
            return false;
        }
    }

    bool
    array(std::vector<std::string> *items)
    {
        ++depth;
        ++pos; // '['
        skipWs();
        if (peek() == ']') {
            ++pos;
            --depth;
            return true;
        }
        for (;;) {
            skipWs();
            size_t begin = pos;
            if (!value())
                return false;
            if (items)
                items->push_back(s.substr(begin, pos - begin));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                --depth;
                return true;
            }
            return false;
        }
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (s.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    static int
    hexDigit(char h)
    {
        if (h >= '0' && h <= '9')
            return h - '0';
        if (h >= 'a' && h <= 'f')
            return h - 'a' + 10;
        if (h >= 'A' && h <= 'F')
            return h - 'A' + 10;
        return -1;
    }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }
    unsigned char
    peekByte() const
    {
        return static_cast<unsigned char>(peek());
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r')) {
            ++pos;
        }
    }

    const std::string &s;
    size_t pos;
    int depth = 0;
};

/** True if the whole of @p value is one JSON number. */
bool
isNumber(const std::string &value)
{
    JsonReader r(value);
    return r.number() && r.position() == value.size();
}

} // anonymous namespace

bool
jsonValid(const std::string &text)
{
    return JsonReader(text).document();
}

bool
jsonMembers(const std::string &text, std::vector<JsonMember> &out)
{
    out.clear();
    return JsonReader(text).document(&out);
}

bool
jsonElements(const std::string &text, std::vector<std::string> &out)
{
    out.clear();
    return JsonReader(text).document(nullptr, &out);
}

size_t
jsonStringAt(const std::string &text, size_t pos, std::string &out)
{
    JsonReader r(text, pos);
    std::string decoded;
    if (!r.string(&decoded))
        return std::string::npos;
    out = std::move(decoded);
    return r.position();
}

bool
jsonString(const std::string &value, std::string &out)
{
    std::string decoded;
    if (jsonStringAt(value, 0, decoded) != value.size())
        return false;
    out = std::move(decoded);
    return true;
}

bool
jsonUint(const std::string &value, uint64_t &out)
{
    // parseUint64 rejects the sign, fraction and exponent a JSON
    // number may carry, and overflow.
    return isNumber(value) && parseUint64(value, out);
}

bool
jsonNumber(const std::string &value, double &out)
{
    if (!isNumber(value))
        return false;
    double parsed = 0.0;
    const char *end = value.data() + value.size();
    auto [stop, ec] = std::from_chars(value.data(), end, parsed);
    if (ec != std::errc() || stop != end || !std::isfinite(parsed))
        return false;
    out = parsed;
    return true;
}

bool
jsonBool(const std::string &value, bool &out)
{
    if (value != "true" && value != "false")
        return false;
    out = value == "true";
    return true;
}

bool
jsonExtractRaw(const std::string &doc, const std::string &key,
               std::string &out)
{
    JsonReader r(doc);
    r.wanted = &key;
    if (!r.document() || !r.found)
        return false;
    out = doc.substr(r.foundBegin, r.foundEnd - r.foundBegin);
    return true;
}

bool
jsonExtractString(const std::string &doc, const std::string &key,
                  std::string &out)
{
    std::string raw;
    return jsonExtractRaw(doc, key, raw) && jsonString(raw, out);
}

bool
jsonExtractUint(const std::string &doc, const std::string &key,
                uint64_t &out)
{
    std::string raw;
    return jsonExtractRaw(doc, key, raw) && jsonUint(raw, out);
}

// --- writer ----------------------------------------------------------

JsonWriter::JsonWriter(int indent) : indentWidth(indent) {}

void
JsonWriter::newline()
{
    if (indentWidth <= 0)
        return;
    out += '\n';
    out.append(stack.size() * static_cast<size_t>(indentWidth), ' ');
}

void
JsonWriter::prepare(bool is_key)
{
    elag_assert(!done);
    if (keyPending) {
        elag_assert(!is_key); // two key() calls in a row
        keyPending = false;
        return; // separator already emitted with the key
    }
    if (!stack.empty()) {
        Level &level = stack.back();
        elag_assert(level.object == is_key ||
                    (!level.object && !is_key));
        if (!level.first)
            out += ',';
        level.first = false;
        newline();
    } else {
        elag_assert(out.empty()); // one top-level value only
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    prepare(false);
    out += '{';
    stack.push_back({true, true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    elag_assert(!stack.empty() && stack.back().object && !keyPending);
    bool empty = stack.back().first;
    stack.pop_back();
    if (!empty)
        newline();
    out += '}';
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepare(false);
    out += '[';
    stack.push_back({false, true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    elag_assert(!stack.empty() && !stack.back().object);
    bool empty = stack.back().first;
    stack.pop_back();
    if (!empty)
        newline();
    out += ']';
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    elag_assert(!stack.empty() && stack.back().object);
    prepare(true);
    out += '"';
    out += jsonEscape(k);
    out += indentWidth > 0 ? "\": " : "\":";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    prepare(false);
    out += '"';
    out += jsonEscape(v);
    out += '"';
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    prepare(false);
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no NaN/Inf
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        out += buf;
        // %g never emits a decimal point for integral values; that is
        // still valid JSON, so leave it as-is.
    }
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    prepare(false);
    out += std::to_string(v);
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    prepare(false);
    out += std::to_string(v);
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepare(false);
    out += v ? "true" : "false";
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    prepare(false);
    out += "null";
    if (stack.empty())
        done = true;
    return *this;
}

JsonWriter &
JsonWriter::rawValue(const std::string &json)
{
    elag_assert(!json.empty());
    prepare(false);
    out += json;
    if (stack.empty())
        done = true;
    return *this;
}

std::string
JsonWriter::str() const
{
    elag_assert(done && stack.empty());
    return out;
}

} // namespace elag
