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

#include <cstdint>
#include <deque>
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
    const predict::RegisterCache &registerCache() const
    {
        return regCache;
    }

    /**
     * Checkpoint the complete timing state: aggregate stats, caches,
     * BTB, predictor tables, the cycle-resource booking ring,
     * in-flight stores, register ready-times, and the issue/fetch
     * frontiers. Configuration, observers, and the fault-injector
     * pointer are NOT captured — restore() requires a Pipeline built
     * from the identical MachineConfig (the checkpoint layer checks
     * config hashes before calling it).
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    /** Per-cycle resource books. */
    struct CycleUse
    {
        int issue = 0;
        int intAlu = 0;
        int mem = 0;
        int fp = 0;
        int branch = 0;
        int dcachePorts = 0;
    };

    /** An in-flight store, for memory-interlock checks. */
    struct InFlightStore
    {
        uint32_t addr = 0;
        uint32_t bytes = 4;
        uint64_t exeCycle = 0;   ///< address resolved at end of this
        uint64_t writeCycle = 0; ///< data visible after this cycle
    };

    CycleUse &use(uint64_t cycle);
    void pruneStores(uint64_t before);
    /** Earliest cycle >= @p from with a free issue slot + FU. */
    uint64_t scheduleIssue(uint64_t from, isa::FuClass fu);
    /** Latency of a non-load instruction. */
    int latencyOf(const isa::Instruction &inst) const;
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
    void notifyStall(const RetiredInst &ri, StallKind kind,
                     uint64_t cycles);

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
     * Per-cycle resource books as a ring keyed by cycle modulo the
     * ring size. The live booking window spans only a few cycles
     * around the issue frontier, so collisions cannot occur; stale
     * slots are lazily reset when revisited.
     */
    struct BookSlot
    {
        uint64_t cycle = ~0ull;
        CycleUse use;
    };
    static constexpr size_t BookRingSize = 1024;
    std::vector<BookSlot> books;
    std::deque<InFlightStore> inFlightStores;

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
