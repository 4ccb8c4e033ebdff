#include "support/stats.hh"

#include "support/json.hh"
#include "support/logging.hh"

namespace elag {

Histogram::Histogram(size_t num_buckets, uint64_t bucket_width)
    : buckets(num_buckets, 0), width(bucket_width)
{
    elag_assert(num_buckets > 0 && bucket_width > 0);
    if ((width & (width - 1)) == 0)
        shift = __builtin_ctzll(width);
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0
                         : static_cast<double>(total_) /
                               static_cast<double>(samples_);
}

uint64_t
Histogram::bucket(size_t i) const
{
    elag_assert(i < buckets.size());
    return buckets[i];
}

void
Histogram::restoreRaw(const std::vector<uint64_t> &counts,
                      uint64_t overflow, uint64_t samples,
                      uint64_t total)
{
    elag_assert(counts.size() == buckets.size());
    buckets = counts;
    overflow_ = overflow;
    samples_ = samples;
    total_ = total;
}

void
writeJson(JsonWriter &w, const Histogram &h)
{
    w.beginObject();
    w.field("samples", h.samples());
    w.field("mean", h.mean());
    w.field("bucket_width", h.bucketWidth());
    w.key("buckets").beginArray();
    for (size_t i = 0; i < h.numBuckets(); ++i)
        w.value(h.bucket(i));
    w.endArray();
    w.field("overflow", h.overflow());
    w.endObject();
}

} // namespace elag
