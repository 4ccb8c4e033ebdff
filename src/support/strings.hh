/**
 * @file
 * Small string helpers shared across the toolchain.
 */

#ifndef ELAG_SUPPORT_STRINGS_HH
#define ELAG_SUPPORT_STRINGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace elag {

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> splitString(const std::string &s, char sep);

/** Strip leading and trailing whitespace. */
std::string trimString(const std::string &s);

/** Join strings with a separator. */
std::string joinStrings(const std::vector<std::string> &parts,
                        const std::string &sep);

/** true if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** true if @p s ends with @p suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Left-pad with spaces to @p width. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad with spaces to @p width. */
std::string padRight(const std::string &s, size_t width);

/**
 * Strict decimal parse of an unsigned integer: the whole string must
 * be digits (one optional leading '+') and fit the result type.
 * Rejects empty input, signs, whitespace, trailing garbage, and
 * overflow — unlike std::stoull, which accepts "12abc" and negatives.
 * @return false (leaving @p out untouched) on any violation.
 */
bool parseUint64(const std::string &s, uint64_t &out);

/** parseUint64 with an additional max bound of UINT32_MAX. */
bool parseUint32(const std::string &s, uint32_t &out);

/**
 * Strict numeric command-line flag: parse what follows @p prefix in
 * @p arg with parseUint32/parseUint64, so "--seed=12abc", "--table="
 * and out-of-range values never silently truncate. On failure prints
 * "<tool>: invalid numeric value in '<arg>'" to stderr and returns
 * false, leaving @p out untouched; the tools treat that as a usage
 * error (exit 2).
 */
bool parseNumericFlag(const char *tool, const std::string &arg,
                      const char *prefix, uint32_t &out);
bool parseNumericFlag(const char *tool, const std::string &arg,
                      const char *prefix, uint64_t &out);

/** Format a double with fixed precision. */
std::string formatDouble(double v, int precision);

/** Format a fraction (0..1) as a percentage string like "93.01". */
std::string formatPercent(double fraction, int precision = 2);

} // namespace elag

#endif // ELAG_SUPPORT_STRINGS_HH
