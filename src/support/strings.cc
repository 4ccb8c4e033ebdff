#include "support/strings.hh"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace elag {

std::vector<std::string>
splitString(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

bool
parseUint64(const std::string &s, uint64_t &out)
{
    size_t i = 0;
    if (i < s.size() && s[i] == '+')
        ++i;
    if (i == s.size())
        return false;
    uint64_t value = 0;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(s[i] - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false; // overflow
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

bool
parseUint32(const std::string &s, uint32_t &out)
{
    uint64_t wide = 0;
    if (!parseUint64(s, wide) || wide > UINT32_MAX)
        return false;
    out = static_cast<uint32_t>(wide);
    return true;
}

namespace {

bool
badNumericFlag(const char *tool, const std::string &arg)
{
    std::fprintf(stderr, "%s: invalid numeric value in '%s'\n", tool,
                 arg.c_str());
    return false;
}

} // anonymous namespace

bool
parseNumericFlag(const char *tool, const std::string &arg,
                 const char *prefix, uint32_t &out)
{
    return parseUint32(arg.substr(std::strlen(prefix)), out) ||
           badNumericFlag(tool, arg);
}

bool
parseNumericFlag(const char *tool, const std::string &arg,
                 const char *prefix, uint64_t &out)
{
    return parseUint64(arg.substr(std::strlen(prefix)), out) ||
           badNumericFlag(tool, arg);
}

std::string
trimString(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
joinStrings(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
formatDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return std::string(buf);
}

std::string
formatPercent(double fraction, int precision)
{
    return formatDouble(fraction * 100.0, precision);
}

} // namespace elag
