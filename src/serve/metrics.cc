#include "serve/metrics.hh"

#include "support/json.hh"

namespace elag {
namespace serve {

ServerMetrics::VerbStats &
ServerMetrics::verbStatsLocked(const std::string &verb)
{
    auto it = verbs.find(verb);
    if (it != verbs.end())
        return it->second;
    obs::Labels labels{{"verb", verb}};
    VerbStats vs;
    vs.requests = &registry_.counter(
        "elag_serve_requests_total",
        "Requests finished by the serving daemon, by verb.", labels);
    vs.errors = &registry_.counter(
        "elag_serve_errors_total",
        "Error responses sent by the serving daemon, by verb.",
        labels);
    // 64 buckets x 4096 us => 0..256 ms + overflow.
    vs.latency = &registry_.histogram(
        "elag_serve_latency_us",
        "Request service latency in microseconds, by verb.", 64, 4096,
        labels);
    return verbs.emplace(verb, vs).first->second;
}

void
ServerMetrics::record(const std::string &verb, bool ok,
                      uint64_t micros)
{
    std::lock_guard<std::mutex> lock(mu);
    VerbStats &vs = verbStatsLocked(verb);
    vs.requests->inc();
    if (!ok)
        vs.errors->inc();
    vs.latency->observe(micros);
}

void
ServerMetrics::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu);
    w.beginObject();
    for (const auto &kv : verbs) {
        const VerbStats &vs = kv.second;
        const obs::Histogram &h = *vs.latency;
        w.key(kv.first).beginObject();
        w.field("requests", vs.requests->value());
        w.field("errors", vs.errors->value());
        w.field("mean_us", h.mean());
        // Same shape support::Histogram always exported, so `stats`
        // consumers are unaffected by the registry move.
        w.key("latency_us").beginObject();
        w.field("samples", h.count());
        w.field("mean", h.mean());
        w.field("bucket_width", h.bucketWidth());
        w.key("buckets").beginArray();
        for (size_t i = 0; i < h.numBuckets(); ++i)
            w.value(h.bucket(i));
        w.endArray();
        w.field("overflow", h.overflow());
        w.endObject();
        w.endObject();
    }
    w.endObject();
}

} // namespace serve
} // namespace elag
