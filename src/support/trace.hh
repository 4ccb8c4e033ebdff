/**
 * @file
 * gem5-style trace channels.
 *
 * A Channel is a named, runtime-switchable debug stream. Simulator
 * code holds a reference to its channel and emits cycle-stamped
 * lines through the ELAG_TRACE_EVT macro; when the channel is
 * disabled the macro costs one predictable branch and evaluates no
 * arguments, so tracing can stay compiled into release builds.
 *
 * Channels are enabled programmatically (trace::enableSpec), from
 * the command line (elagc --trace=pipeline,raddr) or from the
 * environment:
 *
 *     ELAG_TRACE=pipeline,predict ./build/tools/elagc --stats prog.c
 *     ELAG_TRACE=all              ./build/tools/elagc prog.c
 *
 * Output goes to stderr by default and can be redirected with
 * trace::setOutput(). Line format:
 *
 *     <cycle>: <channel>: <message>
 */

#ifndef ELAG_SUPPORT_TRACE_HH
#define ELAG_SUPPORT_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace elag {
namespace trace {

/** One named trace stream. Obtain instances via trace::channel(). */
class Channel
{
  public:
    const std::string &name() const { return name_; }
    bool
    enabled() const
    {
        // Relaxed: enable/disable are configuration actions, not
        // synchronization points; concurrent simulations only need a
        // tear-free read on their per-event fast path.
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Emit one cycle-stamped line. Does nothing when disabled;
     * prefer ELAG_TRACE_EVT, which also skips argument evaluation.
     */
    void log(uint64_t cycle, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

  private:
    friend class Registry;
    explicit Channel(const std::string &name) : name_(name) {}

    std::string name_;
    std::atomic<bool> enabled_{false};
};

/**
 * Get (creating if needed) the channel named @p name. The first
 * registry access also applies the ELAG_TRACE environment variable,
 * so env-enabled tracing needs no tool support. References stay
 * valid for the process lifetime.
 */
Channel &channel(const std::string &name);

/** Enable or disable one channel by name ("all" matches every one). */
void enable(const std::string &name, bool on = true);

/**
 * Enable channels from a comma-separated spec, e.g.
 * "pipeline,raddr" or "all". Empty names are ignored.
 */
void enableSpec(const std::string &spec);

/** Disable every channel, including ones created later (tests). */
void disableAll();

/** Apply the ELAG_TRACE environment variable (idempotent). */
void applyEnvironment();

/** Names of all registered channels, sorted (tests). */
std::vector<std::string> channelNames();

/** Redirect trace output (default stderr); nullptr resets (tests). */
void setOutput(std::FILE *out);

} // namespace trace
} // namespace elag

/**
 * Emit a trace event on @p chan. Arguments are not evaluated when
 * the channel is disabled.
 */
#define ELAG_TRACE_EVT(chan, cycle, ...)                                \
    do {                                                                \
        if ((chan).enabled())                                           \
            (chan).log((cycle), __VA_ARGS__);                           \
    } while (0)

#endif // ELAG_SUPPORT_TRACE_HH
