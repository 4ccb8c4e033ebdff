/**
 * @file
 * Per-verb request accounting for the serving daemon.
 *
 * Counts requests and errors per verb and samples each request's
 * service latency into fixed-bucket histograms. Since the unified
 * observability plane landed, the storage lives in the process-wide
 * obs::Registry (as `elag_serve_requests_total{verb=...}`,
 * `elag_serve_errors_total{verb=...}`, and
 * `elag_serve_latency_us{verb=...}`), so the same numbers surface
 * through the `metrics` verb and its Prometheus exposition. This
 * class keeps the original stats-verb JSON shape on top of the
 * registry-backed metrics, so existing `stats` consumers see no
 * change.
 */

#ifndef ELAG_SERVE_METRICS_HH
#define ELAG_SERVE_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hh"

namespace elag {

class JsonWriter;

namespace serve {

/** Thread-safe per-verb counters + latency histograms. */
class ServerMetrics
{
  public:
    /**
     * Build against the registry the per-verb metrics register in;
     * production uses obs::Registry::process(), tests may pass a
     * private registry.
     */
    explicit ServerMetrics(
        obs::Registry &registry = obs::Registry::process())
        : registry_(registry)
    {}

    /** Record one finished request: outcome + service micros. */
    void record(const std::string &verb, bool ok, uint64_t micros);

    /**
     * Serialize as {"<verb>": {"requests", "errors", "mean_us",
     * "latency_us": {histogram}}, ...} in verb-name order.
     */
    void writeJson(JsonWriter &w) const;

  private:
    struct VerbStats
    {
        obs::Counter *requests = nullptr;
        obs::Counter *errors = nullptr;
        /** 64 buckets x 4096 us => 0..256 ms + overflow. */
        obs::Histogram *latency = nullptr;
    };

    /** Get-or-register the per-verb metric triple. Lock held. */
    VerbStats &verbStatsLocked(const std::string &verb);

    obs::Registry &registry_;
    mutable std::mutex mu;
    std::map<std::string, VerbStats> verbs;
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_METRICS_HH
