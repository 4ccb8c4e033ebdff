/**
 * @file
 * The PC-indexed address prediction table (paper Section 3.2.2).
 */

#ifndef ELAG_PREDICT_ADDRESS_TABLE_HH
#define ELAG_PREDICT_ADDRESS_TABLE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "predict/stride_fsm.hh"
#include "support/stats.hh"

namespace elag {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace verify {
class FaultInjector;
} // namespace verify

namespace predict {

/**
 * Direct-mapped, PC-indexed table of {tag, PA, ST, STC} entries.
 *
 * A probe in ID1 returns the predicted address if the entry is
 * present and confident; the entry is trained in MEM with the
 * computed address. A probe miss makes no prediction; training a
 * missing PC allocates (Replace arc of Figure 3).
 */
class AddressTable
{
  public:
    /**
     * @param entries number of direct-mapped entries
     * @param predict_while_learning if true, probes return the PA
     *        field even when stride confidence (STC) is not built —
     *        the ablation of the Figure-3 confidence mechanism
     */
    explicit AddressTable(uint32_t entries,
                          bool predict_while_learning = false);

    /**
     * ID1-stage probe for the load at @p pc.
     * @return predicted effective address, or nullopt when the probe
     *         misses or the entry lacks stride confidence.
     */
    std::optional<uint32_t> probe(uint32_t pc) const;

    /** @return true if an entry for @p pc is present (any state). */
    bool present(uint32_t pc) const;

    /**
     * MEM-stage update with the computed address @p ca. Allocates on
     * a tag mismatch.
     * @return true if the (pre-update) prediction was correct.
     */
    bool update(uint32_t pc, uint32_t ca);

    uint32_t numEntries() const { return entries; }

    // Statistics.
    uint64_t probes() const { return numProbes; }
    uint64_t probeHits() const { return numProbeHits; }
    uint64_t replacements() const { return numReplacements; }

    /**
     * Distribution of the trained entry's confident-prediction
     * streak, sampled on every update: mass near zero means entries
     * keep relearning strides, mass to the right means settled
     * strided loads (the Figure-3 FSM spends its life Functioning).
     */
    const Histogram &confidenceHistogram() const { return confHist; }

    /**
     * Attach a fault injector (not owned; may be null). Probes then
     * consult it for tag-aliasing and entry-corruption faults.
     */
    void setFaultInjector(verify::FaultInjector *injector)
    {
        faults = injector;
    }

    /**
     * Checkpoint every entry (tag + full stride-FSM state), the
     * confidence histogram, and the probe/replacement tallies. The
     * restoring table must have the same entry count.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t tag = 0;
        StrideFsm fsm;
    };

    // Probed and trained once per speculated load; shift/mask when
    // the table is pow2-sized (it is for every paper configuration).
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
    bool predictWhileLearning;
    verify::FaultInjector *faults = nullptr;
    std::vector<Entry> table;
    Histogram confHist{16, 4};
    mutable uint64_t numProbes = 0;
    mutable uint64_t numProbeHits = 0;
    uint64_t numReplacements = 0;
};

} // namespace predict
} // namespace elag

#endif // ELAG_PREDICT_ADDRESS_TABLE_HH
