/**
 * @file
 * Timing-only cache model.
 *
 * Functional data always comes from MainMemory (the emulator is the
 * source of truth); this model tracks hit/miss timing for a
 * direct-mapped or set-associative, non-blocking cache. The data
 * cache of the paper is 64K direct-mapped, 64-byte blocks,
 * write-through with no write allocate, 12-cycle miss penalty.
 */

#ifndef ELAG_MEM_CACHE_HH
#define ELAG_MEM_CACHE_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elag {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace mem {

/** Cache geometry and timing parameters. */
struct CacheConfig
{
    uint32_t sizeBytes = 64 * 1024;
    uint32_t blockSize = 64;
    uint32_t assoc = 1;
    uint32_t missPenalty = 12;
    bool writeAllocate = false;
};

/** Result of a timed cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Cycle at which the data is available. */
    uint64_t readyCycle = 0;
    /** True when the block was already being filled (partial miss). */
    bool mergedWithFill = false;
};

/**
 * Non-blocking cache timing model with LRU replacement.
 *
 * Misses allocate a fill completing at access+missPenalty; accesses
 * to a block whose fill is in flight complete when the fill does.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Timed read access at @p cycle.
     * @param allocate_on_miss if false, a miss does not fill the
     *        cache (used for no-write-allocate stores).
     * @param extra_penalty additional cycles added to the fill of a
     *        newly-missing block (fault-injected latency jitter);
     *        hits and fill merges are unaffected.
     */
    CacheAccessResult access(uint32_t addr, uint64_t cycle,
                             bool allocate_on_miss = true,
                             uint32_t extra_penalty = 0);

    /**
     * A hit at @p cycle on the block the last access() found or
     * allocated, with no tag lookup. The caller guarantees that no
     * other access came in between and that the block's fill is done
     * by @p cycle; the hit count and LRU stamp then match access().
     */
    void
    rehitLast(uint64_t cycle)
    {
        Line &line = lines[lastLine];
        assert(line.valid && line.fillDone <= cycle);
        line.lastUsed = cycle;
        ++numHits;
    }

    const CacheConfig &config() const { return cfg; }

    // Statistics.
    uint64_t hits() const { return numHits; }
    uint64_t misses() const { return numMisses; }
    uint64_t fillMerges() const { return numMerges; }

    /**
     * Checkpoint every line (valid/tag/LRU stamp/fill cycle) plus
     * the hit/miss/merge tallies. The restoring cache must have been
     * constructed with the same geometry.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
        uint64_t lastUsed = 0;
        /** Cycle the fill completes; data usable at/after this. */
        uint64_t fillDone = 0;
    };

    // The geometry divisions sit on the per-retired-instruction hot
    // path (one I$ access per fetch block, plus every D$ access);
    // with the usual power-of-two geometry they reduce to shifts and
    // masks.
    uint32_t blockFor(uint32_t addr) const
    {
        return pow2Geometry ? addr >> blockShift
                            : addr / cfg.blockSize;
    }
    uint32_t setFor(uint32_t block) const
    {
        return pow2Geometry ? (block & setMask) : block % numSets;
    }
    uint32_t tagFor(uint32_t block) const
    {
        return pow2Geometry ? block >> setShift : block / numSets;
    }
    /** Index of the valid line holding @p addr, or -1. */
    ptrdiff_t findLine(uint32_t addr) const;

    CacheConfig cfg;
    uint32_t numSets;
    bool pow2Geometry = false;
    uint32_t blockShift = 0;
    uint32_t setShift = 0;
    uint32_t setMask = 0;
    std::vector<Line> lines; ///< numSets * assoc, set-major
    /** Index of the line the last access() found or allocated. */
    size_t lastLine = 0;
    uint64_t numHits = 0;
    uint64_t numMisses = 0;
    uint64_t numMerges = 0;
};

/**
 * Branch target buffer with 2-bit saturating counters
 * (1K entries, direct-mapped on the PC, per the paper's machine).
 */
class Btb
{
  public:
    explicit Btb(uint32_t entries = 1024);

    /** Prediction for the branch at @p pc. */
    struct Prediction
    {
        bool hit = false;        ///< entry present with matching tag
        bool taken = false;      ///< counter >= 2
        uint32_t target = 0;     ///< stored target
    };

    /**
     * The prediction for the branch at @p pc, then train its entry
     * with the resolved outcome, in one lookup.
     */
    Prediction resolve(uint32_t pc, bool taken, uint32_t target);

    /** Checkpoint every entry; geometry must match on restore. */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t tag = 0;
        uint32_t target = 0;
        uint8_t counter = 0; ///< 2-bit saturating
    };

    // One lookup per retired branch; shift/mask when pow2-sized.
    uint32_t indexOf(uint32_t pc) const
    {
        return pow2Entries ? (pc & indexMask) : pc % entries;
    }
    uint32_t tagOf(uint32_t pc) const
    {
        return pow2Entries ? pc >> indexShift : pc / entries;
    }

    uint32_t entries;
    bool pow2Entries = false;
    uint32_t indexShift = 0;
    uint32_t indexMask = 0;
    std::vector<Entry> table;
};

} // namespace mem
} // namespace elag

#endif // ELAG_MEM_CACHE_HH
