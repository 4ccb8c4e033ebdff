/**
 * @file
 * Error-reporting and status-message primitives.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user-caused
 * conditions (bad configuration, malformed source programs), and
 * warn()/inform() report non-fatal conditions.
 */

#ifndef ELAG_SUPPORT_LOGGING_HH
#define ELAG_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace elag {

/** Exception thrown by fatal(): the user supplied invalid input. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Format a printf-style message into a std::string. */
std::string vformatString(const char *fmt, va_list ap);

/** Format a printf-style message into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Abort-style error for conditions that indicate a bug in this library.
 * Throws PanicError so tests can assert on invariant violations.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Error for conditions caused by the user (bad program, bad config).
 * Throws FatalError.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal warning printed to stderr (can be silenced). */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Status message printed to stderr (can be silenced). */
void inform(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() output (used by tests/benches). */
void setQuiet(bool quiet);

} // namespace elag

/**
 * Assert an internal invariant; active in all build types.
 * Unlike assert(3) this reports through panic() and is testable.
 */
#define elag_assert(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::elag::panic("assertion '%s' failed at %s:%d",             \
                          #cond, __FILE__, __LINE__);                   \
        }                                                               \
    } while (0)

#endif // ELAG_SUPPORT_LOGGING_HH
