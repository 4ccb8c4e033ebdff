/**
 * @file
 * Emulation-driven timing model of the six-stage in-order
 * superscalar pipeline (paper Figure 2).
 *
 * Stage timing for an instruction entering EXE at cycle t:
 *
 *     IF = t-3   ID1 = t-2   ID2 = t-1   EXE = t   MEM = t+1   WB = t+2
 *
 * Early address generation:
 *  - ld_e probes R_addr and dispatches a speculative access in ID1;
 *    on success the loaded value is ready at the start of EXE
 *    (latency 0).
 *  - ld_p probes the PC-indexed table in ID1 and dispatches in ID2;
 *    verification against the computed address happens at the end of
 *    EXE; on success the value is ready at t+1 (latency 1).
 *  - Failed or skipped speculation falls back to the normal path
 *    (EA in EXE, D$ in MEM, latency 2), with any speculative miss
 *    having warmed the non-blocking cache.
 *
 * The committed instruction stream (with real effective addresses
 * and branch outcomes) is streamed in program order through
 * retire(); the model books issue slots, functional units, data-
 * cache ports, and register ready-times cycle by cycle. Program-
 * order processing gives older instructions priority for data-cache
 * ports, matching hardware arbitration.
 */

#ifndef ELAG_PIPELINE_PIPELINE_HH
#define ELAG_PIPELINE_PIPELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "pipeline/config.hh"
#include "pipeline/observer.hh"
#include "pipeline/stats.hh"
#include "predict/address_table.hh"
#include "predict/register_cache.hh"
#include "support/trace.hh"

namespace elag {
namespace pipeline {

/** One committed instruction, as produced by the emulator. */
struct RetiredInst
{
    uint32_t pc = 0;
    isa::Instruction inst;
    /** Effective address for memory operations. */
    uint32_t effAddr = 0;
    /** Conditional branch outcome / always true for jumps. */
    bool taken = false;
    /** Next PC actually executed. */
    uint32_t nextPc = 0;
    /**
     * Precomputed isa::decodeFlags(inst) word and pre-resolved
     * integer source registers, filled by the emulator's predecoded
     * stream or by makeRetired(). retire() requires flag::Valid.
     */
    uint16_t flags = 0;
    int8_t src1 = -1;
    int8_t src2 = -1;
};

/**
 * A retire record for @p inst at @p pc with flags, src1 and src2
 * decoded from the instruction, for records built outside the
 * emulator (the reference interpreter, hand-built test streams).
 */
RetiredInst makeRetired(uint32_t pc, const isa::Instruction &inst);

/** The timing model. */
class Pipeline
{
  public:
    explicit Pipeline(const MachineConfig &config);

    /** Process the next committed instruction (program order). */
    void retire(const RetiredInst &ri);

    /** Finalize and return statistics. */
    const PipelineStats &finish();

    /**
     * Attach an event observer (tracing, telemetry, tooling). Not
     * owned; must outlive the pipeline. May be called between
     * retires.
     */
    void attach(Observer *observer);

    const PipelineStats &stats() const { return stats_; }
    const MachineConfig &config() const { return cfg; }

    /**
     * Completion cycle of the work retired so far (what finish()
     * would report as cycles). Watchdogs poll this between retires.
     */
    uint64_t currentCycle() const { return lastCompletion; }

    /** Access to the hardware structures (for tests). */
    const predict::AddressTable &addressTable() const { return table; }

    /**
     * Checkpoint the complete timing state: aggregate stats, caches,
     * BTB, predictor tables, the cycle-resource booking ring (whose
     * slot for the issue frontier carries the frontier's issue and
     * FU counts), in-flight stores, register ready-times, and the
     * issue/fetch frontiers. Configuration, observers, and the
     * fault-injector pointer are NOT captured — restore() requires a
     * Pipeline built from the identical MachineConfig (the checkpoint
     * layer checks config hashes before calling it).
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    /** An in-flight store, for memory-interlock checks. */
    struct InFlightStore
    {
        uint32_t addr = 0;
        uint32_t bytes = 4;
        uint64_t exeCycle = 0;   ///< address resolved at end of this
        uint64_t writeCycle = 0; ///< data visible after this cycle
    };

    /** D$ ports booked at @p cycle. */
    int &dcachePortsAt(uint64_t cycle);
    /** Queue @p store, first dropping stores no probe can reach. */
    void pushStore(const InFlightStore &store);
    /**
     * Earliest cycle >= @p from with a free issue slot and a free
     * unit of the FU class in @p flags; books both.
     */
    uint64_t scheduleIssue(uint64_t from, uint16_t flags);
    /** True if an in-flight older store may conflict at @p cycle. */
    bool memInterlock(uint32_t addr, uint32_t bytes,
                      uint64_t cycle) const;
    /** Handle fetch timing; returns earliest EXE cycle from fetch. */
    uint64_t fetchConstraint(const RetiredInst &ri);
    /** Route a load to a path per the selection policy. */
    LoadPath routeLoad(const isa::Instruction &inst, uint64_t id1,
                       int base, int index) const;
    /** The aggregate counter block for @p path. */
    SpecCounters &countersFor(LoadPath path);
    /** Book one verdict into @p ctr (failure cause or forward). */
    static void bumpOutcome(SpecCounters &ctr, SpecOutcome outcome);
    /** Process load speculation; returns dest-ready cycle. */
    uint64_t handleLoad(const RetiredInst &ri, uint64_t e,
                        uint16_t flags);
    void handleBranch(const RetiredInst &ri, uint64_t e,
                      uint16_t flags);

    MachineConfig cfg;
    PipelineStats stats_;

    mem::Cache icache;
    mem::Cache dcache;
    mem::Btb btb;
    predict::AddressTable table;
    predict::RegisterCache regCache;
    /** Optional fault source (from cfg.faultInjector; not owned). */
    verify::FaultInjector *faults = nullptr;

    /**
     * D$ port books as a ring keyed by cycle modulo the ring size.
     * Ports are booked from ID1 to MEM of the issuing instruction,
     * a few cycles around the issue frontier, so collisions cannot
     * occur; stale slots are lazily reset when revisited.
     */
    struct BookSlot
    {
        uint64_t cycle = ~0ull;
        int dcachePorts = 0;
    };
    static constexpr size_t BookRingSize = 1024;
    std::vector<BookSlot> books;

    /**
     * Issue and FU bookings exist only at the issue frontier,
     * nextIssue (DESIGN, "Timing-model hot path"): the issue slots
     * taken there, and the units taken per FuClass, indexed by the
     * flag word's FU field, with their limits. FuClass::None needs
     * no unit; its limit is the issue width, so it never binds.
     */
    static constexpr size_t NumFuClasses =
        static_cast<size_t>(isa::FuClass::None) + 1;
    int issuedAtFrontier = 0;
    std::array<int, NumFuClasses> fuAtFrontier = {};
    std::array<int, NumFuClasses> fuLimit = {};

    /**
     * In-flight stores, oldest first, in a power-of-two ring that
     * doubles when full. Issue is in order, so writeCycle never
     * decreases from the oldest store to the newest.
     */
    std::vector<InFlightStore> stores;
    size_t storeHead = 0;  ///< ring index of the oldest store
    size_t storeCount = 0;

    /**
     * I$ block of the previous fetch (pc >> 4: sixteen 4-byte
     * instructions per 64-byte block), or ~0u when the next fetch
     * must probe the I$ in full.
     */
    uint32_t lastFetchBlock = ~0u;

    /** Attached event sinks (not owned). */
    std::vector<Observer *> observers;
    /**
     * Cached observers.empty() inverse. Observer notification sits
     * on the per-retire hot path; a single flag test keeps the
     * common observer-free configuration from touching the vector
     * (and from assembling per-event condition records) at all.
     */
    bool hasObservers_ = false;

    // Trace channels (process-lifetime registry references).
    trace::Channel &tcPipeline;
    trace::Channel &tcPredict;
    trace::Channel &tcRaddr;
    trace::Channel &tcCache;

    uint64_t intReady[isa::NumIntRegs] = {};
    uint64_t fpReady[isa::NumFpRegs] = {};

    uint64_t nextIssue = 4;   ///< first instruction's EXE cycle
    uint64_t nextFetch = 1;   ///< next fetch cycle lower bound
    int fetchedThisCycle = 0;
    uint64_t lastCompletion = 0;
    bool finished = false;
};

} // namespace pipeline
} // namespace elag

#endif // ELAG_PIPELINE_PIPELINE_HH
