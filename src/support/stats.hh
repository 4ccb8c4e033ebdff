/**
 * @file
 * Fixed-bucket histograms for the timing model's distributions (load
 * latency, stride confidence, binding lifetime) and their JSON form.
 * Named process-wide counters live in the obs metrics registry.
 */

#ifndef ELAG_SUPPORT_STATS_HH
#define ELAG_SUPPORT_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace elag {

class JsonWriter;

/** A histogram with fixed-width buckets plus an overflow bucket. */
class Histogram
{
  public:
    /**
     * @param num_buckets number of regular buckets
     * @param bucket_width width of each bucket
     */
    Histogram(size_t num_buckets = 16, uint64_t bucket_width = 1);

    /**
     * Record a sample. Inline and division-free for power-of-two
     * bucket widths: this sits on the timing model's per-load path.
     */
    void
    sample(uint64_t value, uint64_t count = 1)
    {
        size_t idx = static_cast<size_t>(
            shift >= 0 ? value >> shift : value / width);
        if (idx < buckets.size())
            buckets[idx] += count;
        else
            overflow_ += count;
        samples_ += count;
        total_ += value * count;
    }

    uint64_t samples() const { return samples_; }
    uint64_t total() const { return total_; }
    double mean() const;
    /** Count in regular bucket @p i. */
    uint64_t bucket(size_t i) const;
    /** Count of samples beyond the last regular bucket. */
    uint64_t overflow() const { return overflow_; }
    size_t numBuckets() const { return buckets.size(); }
    uint64_t bucketWidth() const { return width; }

    /**
     * Replace all counts wholesale (checkpoint restore). @p counts
     * must have exactly numBuckets() entries; geometry (bucket count
     * and width) is the constructed histogram's and is not changed.
     */
    void restoreRaw(const std::vector<uint64_t> &counts,
                    uint64_t overflow, uint64_t samples,
                    uint64_t total);

  private:
    std::vector<uint64_t> buckets;
    uint64_t width;
    int shift = -1; ///< log2(width) when width is a power of two
    uint64_t overflow_ = 0;
    uint64_t samples_ = 0;
    uint64_t total_ = 0;
};

/**
 * Serialize a histogram as an object:
 * {"samples", "mean", "bucket_width", "buckets": [...], "overflow"}.
 */
void writeJson(JsonWriter &w, const Histogram &h);

} // namespace elag

#endif // ELAG_SUPPORT_STATS_HH
