/**
 * @file
 * The early-calculation register cache.
 *
 * With capacity 1 this is the paper's special addressing register
 * R_addr (Section 3.2.1): the ld_e opcode binds one general-purpose
 * register, so no predecode or multicast write network is needed.
 * Larger capacities model the hardware-only base-register caches of
 * prior work (Figure 5b uses 4-16 cached registers).
 *
 * The cache keeps which registers are bound, their LRU order and
 * binding lifetimes, but no register values: the timing model
 * forwards the load's real effective address and models a stale
 * binding as an R_addr_Interlock from register ready-times, so a
 * cached copy of the base value would never be read.
 */

#ifndef ELAG_PREDICT_REGISTER_CACHE_HH
#define ELAG_PREDICT_REGISTER_CACHE_HH

#include <cstdint>
#include <vector>

#include "support/stats.hh"

namespace elag {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace predict {

/** LRU set of bound register specifiers. */
class RegisterCache
{
  public:
    explicit RegisterCache(uint32_t capacity);

    /**
     * ID1-stage lookup: is @p reg bound? False means the R_addr_Hit
     * term evaluates false.
     */
    bool isBound(int reg) const;

    /**
     * Bind @p reg (the ld_e binding, or a hardware allocation on any
     * load's base register). Evicts LRU. @p cycle (the binding
     * pipeline cycle, when the caller has one) stamps the slot so
     * rebinds can record the old binding's lifetime.
     */
    void bind(int reg, uint64_t cycle = 0);

    /**
     * Drop @p reg's binding (fault injection, or a context-switch-
     * style flush). A no-op when @p reg is not bound. @p cycle, when
     * provided, records the ended binding's lifetime.
     */
    void invalidate(int reg, uint64_t cycle = 0);

    // Statistics.
    uint64_t bindings() const { return numBindings; }

    /**
     * Distribution of binding lifetimes in cycles: how long each
     * binding survived before a rebind of the same register or an
     * eviction replaced it. For capacity 1 this is the R_addr
     * residency the compiler's grouping heuristic tries to maximize.
     */
    const Histogram &lifetimeHistogram() const { return lifeHist; }

    /**
     * Checkpoint every slot, the lifetime histogram, the LRU tick
     * and the binding tally. Capacity must match.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    struct Slot
    {
        bool valid = false;
        int reg = 0;
        uint64_t lastUsed = 0;
        uint64_t boundCycle = 0;
    };

    std::vector<Slot> slots;
    Histogram lifeHist{16, 16};
    uint64_t tick = 0;
    uint64_t numBindings = 0;
};

} // namespace predict
} // namespace elag

#endif // ELAG_PREDICT_REGISTER_CACHE_HH
