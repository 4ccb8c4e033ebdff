/**
 * @file
 * Span tracing: where wall-time goes, as a Chrome trace-event file.
 *
 * A Span is an RAII scope marker. While the process-wide tracer is
 * disabled (the default) constructing one costs a single predictable
 * branch on an atomic flag — cheap enough to stay compiled into
 * release builds, like ELAG_TRACE_EVT. When a tool arms the tracer
 * (`--trace-out=FILE` or the ELAG_TRACE_OUT environment variable),
 * every span that closes records one complete event:
 *
 *     {
 *         obs::Span span("simulate", "serve");
 *         span.arg("trace_id", request.trace);
 *         ...work...
 *     }   // event recorded here
 *
 * flush() writes the collected events as Chrome trace-event JSON
 * ({"traceEvents": [...]}) loadable directly in Perfetto or
 * chrome://tracing. Timestamps are microseconds on the tracer's own
 * monotonic epoch; cross-process correlation (client vs. server view
 * of one request) goes through the `trace_id` argument instead,
 * which the serving protocol propagates end to end.
 *
 * Spans may be constructed against a private SpanTracer in tests;
 * production code uses SpanTracer::process().
 *
 * Building with -DELAG_OBS_SPANS=OFF defines ELAG_NO_SPANS and
 * compiles Span down to an empty struct — the baseline the CI
 * bench_micro guard compares against to bound the disabled-path
 * overhead.
 */

#ifndef ELAG_OBS_SPAN_HH
#define ELAG_OBS_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace elag {
namespace obs {

/** Collected trace events, shared by every Span in the process. */
class SpanTracer
{
  public:
    /** The process-wide tracer (what bare Span construction uses). */
    static SpanTracer &process();

    SpanTracer();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Arm the tracer; events buffer in memory until flush() writes
     * them to @p path. Arming is idempotent; the last path wins.
     */
    void enable(const std::string &path);

    /** Arm from ELAG_TRACE_OUT if set (idempotent). */
    void applyEnvironment();

    /** Record one complete event (normally via Span). */
    void record(const std::string &name, const std::string &cat,
                uint64_t ts_us, uint64_t dur_us,
                const std::vector<std::pair<std::string, std::string>>
                    &args);

    /**
     * Write the trace-event document to the armed path (rewriting
     * the whole file, so periodic flushes are safe). @return false
     * when disarmed or the file cannot be written.
     */
    bool flush();

    /** The trace-event JSON document (tests, flush). */
    std::string json() const;

    /** Events recorded so far, excluding dropped ones (tests). */
    uint64_t eventCount() const;

    /** Process label emitted as the process_name metadata event. */
    void setProcessLabel(const std::string &label);

    /** Microseconds since this tracer's epoch. */
    uint64_t nowMicros() const;

    /** Drop all events and disarm (tests). */
    void reset();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

  private:
    /** Bound on buffered events so a long-lived daemon cannot grow
     *  without limit; past it events count as dropped. */
    static constexpr size_t kMaxEvents = 1u << 20;

    struct Event
    {
        std::string name;
        std::string cat;
        uint64_t ts = 0;
        uint64_t dur = 0;
        uint32_t tid = 0;
        std::vector<std::pair<std::string, std::string>> args;
    };

    uint32_t tidLocked(std::thread::id id);

    mutable std::mutex mu;
    std::atomic<bool> enabled_{false};
    std::string path_;
    std::string label_;
    std::vector<Event> events;
    std::map<std::thread::id, uint32_t> tids;
    uint64_t dropped_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

#ifdef ELAG_NO_SPANS

/** Spans compiled out (-DELAG_OBS_SPANS=OFF): zero-size no-ops. */
class Span
{
  public:
    explicit Span(const char *, const char *) {}
    Span(const char *, const char *, SpanTracer &) {}
    void arg(const char *, const std::string &) {}
    void end() {}
    bool active() const { return false; }
};

#else

/**
 * RAII scope timer. Inactive (one branch, no stores beyond a null
 * pointer) when the tracer is disabled at construction time.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat)
        : Span(name, cat, SpanTracer::process())
    {}

    Span(const char *name, const char *cat, SpanTracer &tracer)
    {
        if (!tracer.enabled())
            return;
        tracer_ = &tracer;
        name_ = name;
        cat_ = cat;
        start_ = tracer.nowMicros();
    }

    ~Span() { end(); }

    /** Attach a string argument (no-op when inactive). */
    void
    arg(const char *key, const std::string &value)
    {
        if (tracer_)
            args_.emplace_back(key, value);
    }

    /** Close the span early (idempotent; the destructor calls it). */
    void
    end()
    {
        if (!tracer_)
            return;
        tracer_->record(name_, cat_, start_,
                        tracer_->nowMicros() - start_, args_);
        tracer_ = nullptr;
    }

    bool active() const { return tracer_ != nullptr; }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanTracer *tracer_ = nullptr;
    const char *name_ = "";
    const char *cat_ = "";
    uint64_t start_ = 0;
    std::vector<std::pair<std::string, std::string>> args_;
};

#endif // ELAG_NO_SPANS

/**
 * A fresh request-correlation ID: 16 hex digits mixing the process
 * id, a per-process random epoch, and a sequence number, so IDs from
 * a client and a server (or two clients) never collide in practice.
 */
std::string newTraceId();

} // namespace obs
} // namespace elag

#endif // ELAG_OBS_SPAN_HH
