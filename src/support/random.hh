/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generators and property tests need reproducible streams
 * that do not depend on the standard library's unspecified
 * distributions, so a small PCG32 implementation is provided.
 */

#ifndef ELAG_SUPPORT_RANDOM_HH
#define ELAG_SUPPORT_RANDOM_HH

#include <cstdint>

namespace elag {

/**
 * PCG32 pseudo-random generator (O'Neill, 2014). Deterministic across
 * platforms for a given seed, unlike std::default_random_engine.
 */
class Pcg32
{
  public:
    /** Construct with a seed and optional stream selector. */
    explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                   uint64_t seq = 0xda3e39cb94b95bdbULL);

    /** @return the next 32 random bits. */
    uint32_t next();

    /** @return a uniform integer in [0, bound) (bound > 0). */
    uint32_t nextBounded(uint32_t bound);

    /** @return a uniform integer in [lo, hi], inclusive (tests). */
    int32_t nextRange(int32_t lo, int32_t hi);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability p. */
    bool nextBool(double p = 0.5);

    /**
     * Raw generator state, for checkpointing. setRaw() with values
     * from rawState()/rawInc() resumes the stream exactly where the
     * snapshot left it.
     */
    uint64_t rawState() const { return state; }
    uint64_t rawInc() const { return inc; }
    void
    setRaw(uint64_t raw_state, uint64_t raw_inc)
    {
        state = raw_state;
        inc = raw_inc;
    }

  private:
    uint64_t state;
    uint64_t inc;
};

} // namespace elag

#endif // ELAG_SUPPORT_RANDOM_HH
