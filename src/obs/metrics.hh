/**
 * @file
 * Process-wide metrics registry: the one place runtime counters live.
 *
 * Counts are recorded here and read back from here: the serve stats
 * documents and sim::RunCache::stats() report registry values rather
 * than keeping tallies of their own. The one exception is
 * cache::PersistentStore::Stats, which keeps per-store tallies and
 * mirrors them into the registry. The typed API:
 *
 *     obs::Counter &hits = obs::Registry::process().counter(
 *         "elag_runcache_hits_total", "Run-cache lookups served "
 *         "from a completed entry.");
 *     hits.inc();
 *
 * Two metric kinds, from the Prometheus data model:
 *
 *  - Counter: monotonically increasing; lock-free (one relaxed
 *    atomic add) so it can sit on simulator hot paths.
 *  - Histogram: fixed-width buckets plus overflow, every cell a
 *    relaxed atomic, for latency/size distributions.
 *
 * Families are identified by name (convention:
 * `elag_<subsystem>_<name>_<unit>`, `_total` suffix on counters) and
 * may carry label sets, e.g. requests partitioned by verb:
 *
 *     registry.counter("elag_serve_requests_total", help,
 *                      {{"verb", "simulate"}});
 *
 * Export formats: writeJson() for the machine-readable stats
 * documents the toolchain already speaks, and prometheus() for the
 * text exposition format (`# HELP`/`# TYPE` comments, one
 * `name{labels} value` sample per line, histograms as cumulative
 * `_bucket{le=...}` series) so a scrape endpoint needs no extra
 * translation layer.
 *
 * Metric references returned by the registry stay valid for the
 * registry's lifetime; registration takes a lock, recording does
 * not. Most code uses the process() singleton; tests build private
 * instances.
 */

#ifndef ELAG_OBS_METRICS_HH
#define ELAG_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace elag {

class JsonWriter;

namespace obs {

/** One metric's label set, in canonical (registration) order. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter. inc() is one relaxed atomic add. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Fixed-width-bucket histogram with an overflow bucket; every cell
 * is a relaxed atomic so concurrent observers never serialize.
 * Bucket i covers [i*width, (i+1)*width); samples past the last
 * bucket land in overflow. Exposed to Prometheus as the standard
 * cumulative `_bucket{le=...}` / `_sum` / `_count` series.
 */
class Histogram
{
  public:
    Histogram(size_t num_buckets, uint64_t bucket_width);

    void
    observe(uint64_t value)
    {
        size_t idx = static_cast<size_t>(value / width_);
        if (idx < buckets_.size())
            buckets_[idx].fetch_add(1, std::memory_order_relaxed);
        else
            overflow_.fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    uint64_t bucket(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    uint64_t overflow() const
    {
        return overflow_.load(std::memory_order_relaxed);
    }
    size_t numBuckets() const { return buckets_.size(); }
    uint64_t bucketWidth() const { return width_; }
    double mean() const;

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

  private:
    std::vector<std::atomic<uint64_t>> buckets_;
    uint64_t width_;
    std::atomic<uint64_t> overflow_{0};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
};

/** Kind tag of a registered family. */
enum class MetricKind { Counter, Histogram };

/**
 * The registry proper: families keyed by metric name, children keyed
 * by label set. Thread-safe; returned references live as long as the
 * registry.
 */
class Registry
{
  public:
    /** The process-wide registry used by all subsystems. */
    static Registry &process();

    // Out of line: Family is incomplete here.
    Registry();
    ~Registry();

    /**
     * Get (registering on first use) a metric. Re-registration with
     * the same name must use the same kind — a name collision across
     * kinds reports through panic(). Help text is taken from the
     * first registration. Names must match
     * [a-zA-Z_:][a-zA-Z0-9_:]*; label names likewise.
     */
    Counter &counter(const std::string &name, const std::string &help,
                     const Labels &labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help, size_t num_buckets,
                         uint64_t bucket_width,
                         const Labels &labels = {});

    /**
     * Serialize everything as one JSON object keyed by flat sample
     * name (`name` or `name{label="v",...}`): counters as
     * numbers, histograms as {buckets, overflow, count, sum, mean,
     * bucket_width} objects. Families and children emit in sorted
     * order, so the document is deterministic for goldens.
     */
    void writeJson(JsonWriter &w) const;

    /** Prometheus text exposition (version 0.0.4) of all families. */
    std::string prometheus() const;

    /**
     * Counters only, as a flat JSON object {"flat-name": value}:
     * the campaign manifest's metrics line, and the scrape the
     * sharded supervisor merges with restoreCounters().
     */
    void writeCountersJson(JsonWriter &w) const;

    /**
     * Add the values of a writeCountersJson() document into this
     * registry's counters, registering any that do not exist yet.
     * The document is read with support/json's reader: one that is
     * not a valid JSON object restores nothing, and a member whose
     * key is not a flat sample name or whose value is not an unsigned
     * integer is skipped.
     * @return the number of counters restored.
     */
    size_t restoreCounters(const std::string &raw_object);

  private:
    struct Family;

    Family &family(const std::string &name, MetricKind kind,
                   const std::string &help);

    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Family>> families;
};

/**
 * @return "" if @p text is a well-formed Prometheus text exposition
 * (every line a `# HELP`/`# TYPE`/`# EOF` comment or a
 * `name{labels} value` sample), else a one-line description of the
 * first offending line. A test oracle: only tests call it (CI checks
 * the served exposition with its own Python grammar).
 */
std::string validatePrometheus(const std::string &text);

} // namespace obs
} // namespace elag

#endif // ELAG_OBS_METRICS_HH
