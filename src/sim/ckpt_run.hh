/**
 * @file
 * The timed-run loop, and crash-safe checkpointed timed simulation.
 *
 * ResumableTimedRun::step() is the one place emulator retires feed a
 * Pipeline: sim::runTimed() steps one run to completion, and
 * runTimedCheckpointed() steps two in chunks.
 *
 * A timed stats run (the engine behind `elagc --json-stats`, with or
 * without checkpoint flags, and the daemon's checkpointed `simulate`
 * verb) is two sequential simulations — the baseline machine, then
 * the configured machine with telemetry and optional verification
 * observers attached. runTimedCheckpointed() executes the two runs in
 * fixed-size retire chunks and can write a durable snapshot of the
 * complete simulation state between chunks:
 * architectural state (PC, register files, memory image), the full
 * timing model (caches, BTB, predictor tables, booking ring,
 * in-flight stores, issue/fetch frontiers, aggregate stats), and
 * every attached observer (telemetry, invariant checker, fault
 * injector PRNG stream).
 *
 * The contract is *kill-resume equivalence*: a run killed at any
 * instant and resumed from its last snapshot produces a final stats
 * report byte-identical to an uninterrupted run's. Snapshots are
 * written atomically (ckpt/checkpoint.hh), so a kill mid-snapshot
 * just resumes from the previous one.
 *
 * Snapshots are bound to their run identity — program hash, machine
 * and baseline config hashes, instruction cap, observer set, fault
 * plan and seed. Restoring against a different identity throws
 * CkptError(Mismatch) rather than silently continuing the wrong run.
 */

#ifndef ELAG_SIM_CKPT_RUN_HH
#define ELAG_SIM_CKPT_RUN_HH

#include <chrono>
#include <functional>
#include <string>

#include "sim/simulator.hh"

namespace elag {

namespace verify {
class FaultInjector;
class InvariantChecker;
} // namespace verify

namespace sim {

/**
 * Identity of one checkpointed stats run. A snapshot may only be
 * restored into a run with the identical key.
 */
struct CkptRunKey
{
    uint64_t programHash = 0;
    uint64_t machineHash = 0;
    uint64_t baselineHash = 0;
    uint64_t maxInstructions = 0;
    bool hasChecker = false;
    std::string injectorPlan; ///< empty when no injector attached
    uint64_t injectorSeed = 0;

    bool
    operator==(const CkptRunKey &o) const
    {
        return programHash == o.programHash &&
               machineHash == o.machineHash &&
               baselineHash == o.baselineHash &&
               maxInstructions == o.maxInstructions &&
               hasChecker == o.hasChecker &&
               injectorPlan == o.injectorPlan &&
               injectorSeed == o.injectorSeed;
    }
};

/** The key for a stats run over @p prog with the given attachments. */
CkptRunKey makeRunKey(const CompiledProgram &prog,
                      const pipeline::MachineConfig &machine,
                      const pipeline::MachineConfig &baseline,
                      uint64_t max_instructions, bool has_checker,
                      const verify::FaultInjector *injector);

void serialize(ckpt::Writer &w, const CkptRunKey &key);
void restore(ckpt::Reader &r, CkptRunKey &key);

/**
 * Stable content hash of a run key — names auto-resume snapshot
 * files, so re-invoking the identical command finds its own
 * checkpoint and a different command cannot collide with it.
 */
uint64_t hashRunKey(const CkptRunKey &key);

/**
 * One timed simulation that can stop at a chunk boundary, serialize
 * its complete state, and later continue — in the same process (for
 * equivalence tests) or after a restore in a fresh one.
 */
class ResumableTimedRun
{
  public:
    ResumableTimedRun(const CompiledProgram &prog,
                      const pipeline::MachineConfig &machine,
                      uint64_t max_instructions);

    /** Attach an observer (order matters for event delivery). */
    void attach(pipeline::Observer *observer);

    /**
     * Retire up to @p budget more instructions. With no watchdog limit
     * and no span tracer armed, each retire is only the pipeline
     * hand-off. Otherwise maxCycles is checked per retire over the
     * whole (resumed) run, maxWallMs every 4,096 retires against this
     * process's attempt, and an armed tracer records a `sim.slice`
     * span per 2^20 retires plus one for the step's remainder.
     */
    void step(uint64_t budget, const Watchdog &watchdog);

    /** True once the program halted or the instruction cap is hit. */
    bool done() const { return done_; }

    /** Retired instructions so far, across restores. */
    uint64_t retired() const { return acc_.instructions; }

    /** Finalize the pipeline and return the result (once done()). */
    TimedResult finish();

    /**
     * Checkpoint/restore the run mid-flight. restore() requires a
     * ResumableTimedRun constructed over the identical program and
     * machine configuration (enforced via CkptRunKey by callers).
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    pipeline::Pipeline pipe_;
    Emulator emu_;
    uint64_t maxInst_;
    /** Accumulated result across step() calls and restores. */
    EmulationResult acc_;
    bool done_ = false;
    /** Wall-clock budget base for this process's attempt. */
    std::chrono::steady_clock::time_point wallStart_;
};

/** Snapshot cadence and placement for a checkpointed run. */
struct CkptPolicy
{
    /**
     * Snapshot file; empty disables snapshotting (resume-only). A run
     * that completes removes it.
     */
    std::string path;
    /** Retires between snapshots (0 means the 5M default). */
    uint64_t everyRetires = 0;
    /**
     * Polled at chunk boundaries; returning true flushes a final
     * snapshot and stops the run with interrupted=true (used by
     * SIGTERM/SIGINT handlers to make interrupted runs resumable).
     */
    std::function<bool()> interrupted;
};

/** Default snapshot interval in retired instructions. */
constexpr uint64_t kDefaultCkptRetires = 5'000'000;

/** Outcome of a checkpointed stats run. */
struct CkptStatsOutcome
{
    TimedResult base;
    TimedResult timed;
    /** True when the run continued from a restored snapshot. */
    bool resumed = false;
    /**
     * True when policy.interrupted() stopped the run early; base and
     * timed are then partial and must not be reported.
     */
    bool interrupted = false;
    uint32_t snapshots = 0;
};

/**
 * The two-phase stats run (baseline machine, then @p machine with
 * @p telemetry / @p checker attached and @p injector active) with
 * periodic durable snapshots per @p policy.
 *
 * When @p resume_from is non-empty the snapshot at that path is
 * validated and restored first; any defect — torn file, bad CRC,
 * version mismatch, or an identity mismatch against the current run
 * — throws the corresponding typed CkptError. The caller decides
 * whether that is fatal (explicit --resume-from) or grounds for a
 * clean re-run (auto-resume).
 *
 * Observers must match the snapshot being restored: @p telemetry
 * and @p checker state is captured alongside the simulation so a
 * resumed run's load report and invariant-conservation checks match
 * an uninterrupted run's.
 */
CkptStatsOutcome
runTimedCheckpointed(const CompiledProgram &prog,
                     const pipeline::MachineConfig &machine,
                     const pipeline::MachineConfig &baseline,
                     uint64_t max_instructions,
                     pipeline::LoadTelemetry *telemetry,
                     verify::InvariantChecker *checker,
                     verify::FaultInjector *injector,
                     const Watchdog &watchdog, const CkptPolicy &policy,
                     const std::string &resume_from = "");

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_CKPT_RUN_HH
