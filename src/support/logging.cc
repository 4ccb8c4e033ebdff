#include "support/logging.hh"

#include <atomic>
#include <cstdio>
#include <vector>

namespace elag {

namespace {
// Atomic so worker threads may consult it while the main thread
// flips it (relaxed: it only gates diagnostics).
std::atomic<bool> quietFlag{false};
} // anonymous namespace

std::string
vformatString(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
formatString(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformatString(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatString(fmt, ap);
    va_end(ap);
    throw PanicError("panic: " + msg);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatString(fmt, ap);
    va_end(ap);
    throw FatalError("fatal: " + msg);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatString(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatString(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuiet(bool q)
{
    quietFlag.store(q, std::memory_order_relaxed);
}

} // namespace elag
