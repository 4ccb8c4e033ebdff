#include "obs/span.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "support/json.hh"
#include "support/logging.hh"

namespace elag {
namespace obs {

SpanTracer &
SpanTracer::process()
{
    static SpanTracer tracer;
    return tracer;
}

SpanTracer::SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

void
SpanTracer::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu);
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
}

void
SpanTracer::applyEnvironment()
{
    const char *path = std::getenv("ELAG_TRACE_OUT");
    if (path && *path && !enabled())
        enable(path);
}

uint64_t
SpanTracer::nowMicros() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint32_t
SpanTracer::tidLocked(std::thread::id id)
{
    auto it = tids.find(id);
    if (it == tids.end())
        it = tids.emplace(id, static_cast<uint32_t>(tids.size() + 1))
                 .first;
    return it->second;
}

void
SpanTracer::record(
    const std::string &name, const std::string &cat, uint64_t ts_us,
    uint64_t dur_us,
    const std::vector<std::pair<std::string, std::string>> &args)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu);
    if (events.size() >= kMaxEvents) {
        ++dropped_;
        return;
    }
    Event ev;
    ev.name = name;
    ev.cat = cat;
    ev.ts = ts_us;
    ev.dur = dur_us;
    ev.tid = tidLocked(std::this_thread::get_id());
    ev.args = args;
    events.push_back(std::move(ev));
}

std::string
SpanTracer::json() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t pid = static_cast<uint64_t>(::getpid());

    JsonWriter w(0);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Metadata: name the process so Perfetto's track labels read as
    // the tool, not a bare pid.
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.key("args").beginObject();
    w.field("name", label_.empty() ? "elag" : label_);
    w.endObject();
    w.endObject();

    for (const Event &ev : events) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", ev.cat);
        w.field("ph", "X");
        w.field("ts", ev.ts);
        w.field("dur", ev.dur);
        w.field("pid", pid);
        w.field("tid", static_cast<uint64_t>(ev.tid));
        if (!ev.args.empty()) {
            w.key("args").beginObject();
            for (const auto &kv : ev.args)
                w.field(kv.first, kv.second);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    if (dropped_)
        w.field("droppedEvents", dropped_);
    w.endObject();
    return w.str();
}

bool
SpanTracer::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!enabled_.load(std::memory_order_relaxed) ||
            path_.empty()) {
            return false;
        }
        path = path_;
    }
    std::string doc = json();
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        warn("obs: cannot write trace to '%s'", path.c_str());
        return false;
    }
    bool ok =
        std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
    ok = std::fputc('\n', out) != EOF && ok;
    ok = std::fclose(out) == 0 && ok;
    return ok;
}

uint64_t
SpanTracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return events.size();
}

void
SpanTracer::setProcessLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mu);
    label_ = label;
}

void
SpanTracer::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    enabled_.store(false, std::memory_order_relaxed);
    path_.clear();
    events.clear();
    tids.clear();
    dropped_ = 0;
}

std::string
newTraceId()
{
    // Process-unique epoch: pid mixed with a startup clock sample,
    // so two processes started the same second still diverge.
    static const uint64_t processSalt = [] {
        uint64_t z =
            static_cast<uint64_t>(::getpid()) ^
            static_cast<uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch()
                    .count());
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }();
    static std::atomic<uint64_t> seq{0};
    uint64_t id = processSalt ^
                  (seq.fetch_add(1, std::memory_order_relaxed) *
                   0x9e3779b97f4a7c15ULL);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

} // namespace obs
} // namespace elag
