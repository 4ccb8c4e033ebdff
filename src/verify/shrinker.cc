#include "verify/shrinker.hh"

#include <algorithm>
#include <map>

namespace elag {
namespace verify {

namespace {

/** Memoizing wrapper so no subset is probed twice. */
class CachedOracle
{
  public:
    CachedOracle(const SubsetOracle &oracle, ShrinkStats *stats)
        : oracle(oracle), stats(stats)
    {}

    bool
    fails(const std::vector<size_t> &keep)
    {
        auto it = cache.find(keep);
        if (it != cache.end()) {
            if (stats)
                ++stats->cacheHits;
            return it->second;
        }
        bool result = oracle(keep);
        if (stats)
            ++stats->probes;
        cache.emplace(keep, result);
        return result;
    }

  private:
    const SubsetOracle &oracle;
    ShrinkStats *stats;
    std::map<std::vector<size_t>, bool> cache;
};

std::vector<size_t>
complementOf(const std::vector<size_t> &current,
             const std::vector<size_t> &chunk)
{
    std::vector<size_t> out;
    out.reserve(current.size() - chunk.size());
    std::set_difference(current.begin(), current.end(), chunk.begin(),
                        chunk.end(), std::back_inserter(out));
    return out;
}

} // namespace

std::vector<size_t>
ddmin(size_t n, const SubsetOracle &stillFails, ShrinkStats *stats)
{
    std::vector<size_t> current(n);
    for (size_t i = 0; i < n; ++i)
        current[i] = i;
    if (n == 0)
        return current;

    CachedOracle oracle(stillFails, stats);
    // Guard against flaky failures: if the full set no longer fails,
    // shrinking would "minimize" toward an unrelated subset.
    if (!oracle.fails(current))
        return current;

    size_t granularity = 2;
    while (current.size() >= 2) {
        size_t chunkCount = std::min(granularity, current.size());
        size_t base = current.size() / chunkCount;
        size_t extra = current.size() % chunkCount;

        // Split current into chunkCount nearly-equal chunks.
        std::vector<std::vector<size_t>> chunks;
        chunks.reserve(chunkCount);
        size_t pos = 0;
        for (size_t c = 0; c < chunkCount; ++c) {
            size_t len = base + (c < extra ? 1 : 0);
            chunks.emplace_back(current.begin() + pos,
                                current.begin() + pos + len);
            pos += len;
        }

        bool reduced = false;
        // Try each chunk alone ("reduce to subset").
        for (const auto &chunk : chunks) {
            if (chunk.size() < current.size() && oracle.fails(chunk)) {
                current = chunk;
                granularity = 2;
                reduced = true;
                break;
            }
        }
        if (!reduced && chunkCount > 2) {
            // Try each complement ("reduce to complement").
            for (const auto &chunk : chunks) {
                std::vector<size_t> rest = complementOf(current, chunk);
                if (!rest.empty() && oracle.fails(rest)) {
                    current = rest;
                    granularity = std::max<size_t>(granularity - 1, 2);
                    reduced = true;
                    break;
                }
            }
        }
        if (!reduced) {
            if (granularity >= current.size())
                break; // 1-minimal
            granularity = std::min(granularity * 2, current.size());
        }
    }
    return current;
}

} // namespace verify
} // namespace elag
