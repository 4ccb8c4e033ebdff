/**
 * @file
 * Cycle-level timing-model tests, driven by hand-built committed-
 * instruction streams. These pin down the paper's latencies:
 * a 2-cycle normal load (one-cycle load-use stall, Figure 1a),
 * 1-cycle ld_p loads and 0-cycle ld_e loads on successful
 * speculation, port arbitration, and branch handling.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/telemetry.hh"
#include "verify/invariant_checker.hh"

using namespace elag;
using namespace elag::pipeline;
using namespace elag::isa;

namespace {

/**
 * Feed a straight-line instruction stream with sequential PCs.
 *
 * Every feeder carries the Section-3.2 invariant checker, so each
 * timing test doubles as a safety-condition audit of its stream.
 */
struct StreamFeeder
{
    Pipeline pipe;
    verify::InvariantChecker checker;
    uint32_t pc = 0;

    explicit StreamFeeder(const MachineConfig &cfg) : pipe(cfg)
    {
        pipe.attach(&checker);
    }

    /** finish() plus the checker's end-of-run cross-checks. */
    const PipelineStats &
    finishChecked()
    {
        const PipelineStats &s = pipe.finish();
        checker.finish(s);
        return s;
    }

    void
    feed(Instruction inst, uint32_t ea = 0)
    {
        RetiredInst ri = makeRetired(pc, inst);
        ri.effAddr = ea;
        ri.nextPc = pc + 1;
        pipe.retire(ri);
        ++pc;
    }

    void
    feedBranch(Instruction inst, bool taken, uint32_t target)
    {
        RetiredInst ri = makeRetired(pc, inst);
        ri.taken = taken;
        ri.nextPc = taken ? target : pc + 1;
        pipe.retire(ri);
        pc = ri.nextPc;
    }

    uint64_t
    cycles()
    {
        return finishChecked().cycles;
    }
};

MachineConfig
base()
{
    return MachineConfig::baseline();
}

/** Run a lambda over a feeder and return total cycles. */
template <typename F>
uint64_t
cyclesFor(const MachineConfig &cfg, F &&body)
{
    StreamFeeder feeder(cfg);
    body(feeder);
    return feeder.cycles();
}

} // namespace

TEST(Timing, IndependentAluOpsIssueTogether)
{
    // Four independent adds fit in one issue group (4 int ALUs).
    uint64_t four = cyclesFor(base(), [](StreamFeeder &f) {
        for (int i = 0; i < 4; ++i)
            f.feed(build::add(10 + i, 1, 2));
    });
    // A fifth add spills to the next cycle.
    uint64_t five = cyclesFor(base(), [](StreamFeeder &f) {
        for (int i = 0; i < 5; ++i)
            f.feed(build::add(10 + i, 1, 2));
    });
    EXPECT_EQ(five, four + 1);
}

TEST(Timing, DependentAluChainIsOneCyclePerOp)
{
    uint64_t n8 = cyclesFor(base(), [](StreamFeeder &f) {
        for (int i = 0; i < 8; ++i)
            f.feed(build::add(10, 10, 2));
    });
    uint64_t n12 = cyclesFor(base(), [](StreamFeeder &f) {
        for (int i = 0; i < 12; ++i)
            f.feed(build::add(10, 10, 2));
    });
    EXPECT_EQ(n12, n8 + 4);
}

TEST(Timing, HittingLoadLatencyIsTwoCycles)
{
    // Paper Section 5.1: loads have 2-cycle latency (EA calc + D$).
    // A dependent chain of N hitting loads costs ~2 cycles per link,
    // versus ~1 for a chain of dependent adds.
    auto warm = [](StreamFeeder &f) {
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        for (int i = 0; i < 20; ++i)
            f.feed(build::add(20, 20, 2)); // cover the fill latency
    };
    auto load_chain = [&](StreamFeeder &f, int n) {
        warm(f);
        for (int i = 0; i < n; ++i)
            f.feed(build::load(LoadSpec::Normal, 10, 10, 0), 0x100);
    };
    auto add_chain = [&](StreamFeeder &f, int n) {
        warm(f);
        for (int i = 0; i < n; ++i)
            f.feed(build::add(10, 10, 2));
    };
    uint64_t load16 =
        cyclesFor(base(), [&](StreamFeeder &f) { load_chain(f, 16); });
    uint64_t load8 =
        cyclesFor(base(), [&](StreamFeeder &f) { load_chain(f, 8); });
    uint64_t add16 =
        cyclesFor(base(), [&](StreamFeeder &f) { add_chain(f, 16); });
    uint64_t add8 =
        cyclesFor(base(), [&](StreamFeeder &f) { add_chain(f, 8); });
    // Marginal cost: 2 cycles per chained load, 1 per chained add.
    EXPECT_EQ(load16 - load8, 16u);
    EXPECT_EQ(add16 - add8, 8u);
}

TEST(Timing, CacheMissAddsPenalty)
{
    // Two dependent loads to the same cold block: the first misses
    // (12-cycle penalty), the second hits in the filled block.
    uint64_t cold = cyclesFor(base(), [](StreamFeeder &f) {
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        f.feed(build::add(11, 10, 2));
    });
    MachineConfig cfg = base();
    cfg.dcache.missPenalty = 24;
    uint64_t colder = cyclesFor(cfg, [](StreamFeeder &f) {
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        f.feed(build::add(11, 10, 2));
    });
    EXPECT_EQ(colder, cold + 12);
}

TEST(Timing, MemPortLimitTwoPerCycle)
{
    // Warm one block, then issue N independent hitting loads: two
    // fit per cycle (2 memory ports), a third spills to the next.
    auto warm = [](StreamFeeder &f) {
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        for (int i = 0; i < 20; ++i)
            f.feed(build::add(20, 20, 2));
    };
    uint64_t two = cyclesFor(base(), [&](StreamFeeder &f) {
        warm(f);
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        f.feed(build::load(LoadSpec::Normal, 11, 1, 8), 0x108);
    });
    uint64_t three = cyclesFor(base(), [&](StreamFeeder &f) {
        warm(f);
        f.feed(build::load(LoadSpec::Normal, 10, 1, 0), 0x100);
        f.feed(build::load(LoadSpec::Normal, 11, 1, 8), 0x108);
        f.feed(build::load(LoadSpec::Normal, 12, 1, 16), 0x110);
    });
    EXPECT_EQ(three, two + 1);
}

TEST(Timing, PredictedLoadSavesOneCycle)
{
    // Warm the table with a strided load at one PC, then measure the
    // dependent-use stall: successful ld_p means value ready at
    // EXE+1 (latency 1), removing the load-use stall entirely.
    MachineConfig cfg = MachineConfig::proposed();
    auto run_loop = [](StreamFeeder &f, LoadSpec spec) {
        // Same static load (same pc) re-executed via a backward
        // branch; feed manually with a fixed pc.
        for (int i = 0; i < 50; ++i) {
            RetiredInst ld = makeRetired(100, build::load(spec, 10, 1, 0));
            ld.effAddr = 0x1000 + static_cast<uint32_t>(i) * 4;
            ld.nextPc = 101;
            f.pipe.retire(ld);
            RetiredInst use = makeRetired(101, build::add(11, 10, 10));
            use.nextPc = 102;
            f.pipe.retire(use);
            RetiredInst br =
                makeRetired(102, build::branch(Opcode::BLT, 5, 6, 100));
            br.taken = i + 1 < 50;
            br.nextPc = br.taken ? 100 : 103;
            f.pipe.retire(br);
        }
    };
    StreamFeeder with_pred(cfg);
    run_loop(with_pred, LoadSpec::Predict);
    uint64_t fwd = with_pred.pipe.stats().predict.forwarded;
    uint64_t cycles_pred = with_pred.cycles();

    StreamFeeder without(cfg);
    run_loop(without, LoadSpec::Normal);
    uint64_t cycles_norm = without.cycles();

    EXPECT_GT(fwd, 30u);
    EXPECT_LT(cycles_pred, cycles_norm);
}

TEST(Timing, EarlyCalcLoadHasZeroLatency)
{
    // Bind R_addr with a first ld_e, keep the base register stable,
    // then issue dependent ld_e loads with enough spacing for the
    // base to be ready at ID1: they forward with latency 0.
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    // First ld_e binds r1 into R_addr and starts the block fill.
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    // Long dependent spacer chain so the fill completes.
    for (int i = 0; i < 24; ++i)
        f.feed(build::add(20, 20, 2));
    // Now the block is warm, r1 is stable, and R_addr is bound:
    // the speculative ID1 access hits and forwards with latency 0.
    f.feed(build::load(LoadSpec::EarlyCalc, 11, 1, 4), 0x104);
    for (int i = 0; i < 4; ++i)
        f.feed(build::add(21, 21, 2));
    f.feed(build::load(LoadSpec::EarlyCalc, 12, 1, 8), 0x108);
    f.finishChecked();
    EXPECT_GT(f.pipe.stats().earlyCalc.forwarded, 0u);
}

TEST(Timing, EarlyCalcInterlockPreventsForwarding)
{
    // The base register is written immediately before the load: the
    // R_addr content is stale at ID1 (address-use hazard, Figure 1c
    // transposed) so no forwarding happens.
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    for (int i = 0; i < 10; ++i) {
        f.feed(build::addi(1, 1, 4)); // writes the base register
        f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0),
               0x100 + static_cast<uint32_t>(i) * 4);
    }
    f.finishChecked();
    EXPECT_EQ(f.pipe.stats().earlyCalc.forwarded, 0u);
    EXPECT_GT(f.pipe.stats().earlyCalc.regInterlock, 0u);
}

TEST(Timing, UnboundBaseDoesNotSpeculate)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    // First ld_e with base r1: not bound yet -> notBound.
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    // ld_e with base r2: R_addr holds r1 -> notBound again.
    f.feed(build::load(LoadSpec::EarlyCalc, 11, 2, 0), 0x200);
    f.finishChecked();
    EXPECT_EQ(f.pipe.stats().earlyCalc.speculated, 0u);
    EXPECT_EQ(f.pipe.stats().earlyCalc.notBound, 2u);
}

TEST(Timing, MemInterlockBlocksForwardingPastPendingStore)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    // Bind and warm.
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    f.feed(build::add(20, 2, 3));
    // Store to the same address immediately before a dependent ld_e:
    // the speculative load would read stale data -> Mem_Interlock.
    f.feed(build::store(5, 6, 0), 0x104);
    f.feed(build::load(LoadSpec::EarlyCalc, 11, 1, 4), 0x104);
    f.finishChecked();
    EXPECT_EQ(f.pipe.stats().earlyCalc.forwarded, 0u);
}

namespace {

/**
 * Warm/bind, issue a sub-word store, wait `spacing` cycles, then
 * issue a speculative word ld_e of 0x100. Varying `spacing` walks
 * the store through its resolve/visible window relative to the
 * ID1 probe.
 */
PipelineStats
byteStoreProbe(uint32_t store_addr, int spacing)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    // Bind r1 into R_addr and warm the block holding 0x100..0x13f
    // (both candidate store addresses live in the same block, so the
    // cache state is identical between the overlap/no-overlap runs).
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    for (int i = 0; i < 24; ++i)
        f.feed(build::add(20, 20, 2));
    f.feed(build::store(5, 6, 0, MemWidth::Byte), store_addr);
    for (int i = 0; i < spacing; ++i)
        f.feed(build::add(21, 21, 2));
    f.feed(build::load(LoadSpec::EarlyCalc, 11, 1, 0), 0x100);
    return f.finishChecked();
}

} // namespace

TEST(Timing, MemInterlockCatchesSubWordStoreStraddlingProbe)
{
    // A one-byte store into the middle of the probed word must raise
    // Mem_Interlock even though neither start address matches, while
    // the identical stream with the byte store outside the word must
    // forward. Scan the spacing so the comparison happens in the
    // window where the store address is resolved but its data is not
    // yet visible to the ID1 probe.
    bool contrast = false;
    for (int spacing = 0; spacing <= 8; ++spacing) {
        PipelineStats ov = byteStoreProbe(0x102, spacing);
        PipelineStats cl = byteStoreProbe(0x108, spacing);
        if (ov.earlyCalc.memInterlock > 0 && cl.earlyCalc.forwarded > 0
            && cl.earlyCalc.memInterlock == 0) {
            contrast = true;
        }
        // The straddling store is strictly more blocking than the
        // disjoint one at every spacing (the conservative
        // unresolved-address window applies to both equally).
        EXPECT_GE(ov.earlyCalc.memInterlock, cl.earlyCalc.memInterlock)
            << "spacing " << spacing;
        // Once the straddling store's data is visible, forwarding is
        // safe again — but never while it is merely resolved.
        EXPECT_EQ(ov.earlyCalc.memInterlock + ov.earlyCalc.forwarded +
                      ov.earlyCalc.cacheMiss + ov.earlyCalc.notBound,
                  ov.earlyCalc.executed)
            << "spacing " << spacing;
    }
    EXPECT_TRUE(contrast);
}

TEST(Timing, MispredictedBranchCostsRefill)
{
    // A taken branch with a cold BTB redirects at EXE.
    uint64_t mispredicted = cyclesFor(base(), [](StreamFeeder &f) {
        f.feed(build::add(10, 1, 2));
        f.feedBranch(build::branch(Opcode::BEQ, 0, 0, 50), true, 50);
        f.feed(build::add(11, 1, 2));
    });
    uint64_t fallthrough = cyclesFor(base(), [](StreamFeeder &f) {
        f.feed(build::add(10, 1, 2));
        f.feedBranch(build::branch(Opcode::BNE, 0, 1, 50), false, 0);
        f.feed(build::add(11, 1, 2));
    });
    EXPECT_GT(mispredicted, fallthrough);
}

TEST(Timing, TrainedBtbRemovesMispredictPenalty)
{
    MachineConfig cfg = base();
    auto loop = [](StreamFeeder &f, int iters) {
        for (int i = 0; i < iters; ++i) {
            RetiredInst body = makeRetired(10, build::add(10, 10, 2));
            body.nextPc = 11;
            f.pipe.retire(body);
            RetiredInst br =
                makeRetired(11, build::branch(Opcode::BLT, 3, 4, 10));
            br.taken = i + 1 < iters;
            br.nextPc = br.taken ? 10 : 12;
            f.pipe.retire(br);
        }
    };
    StreamFeeder f(cfg);
    loop(f, 100);
    f.finishChecked();
    // Only the first iteration (cold BTB) and the exit mispredict.
    EXPECT_LE(f.pipe.stats().mispredicts, 4u);
    EXPECT_EQ(f.pipe.stats().branches, 100u);
}

TEST(Timing, HardwareOnlyModePredictsEveryLoadKind)
{
    MachineConfig cfg;
    cfg.addressTableEnabled = true;
    cfg.selection = SelectionPolicy::AllPredict;
    StreamFeeder f(cfg);
    for (int i = 0; i < 20; ++i) {
        RetiredInst ld = makeRetired(
            7, build::load(LoadSpec::Normal, 10, 1, 0)); // ld_n!
        ld.effAddr = 0x500 + static_cast<uint32_t>(i) * 8;
        ld.nextPc = 8;
        f.pipe.retire(ld);
    }
    f.finishChecked();
    // Despite the ld_n opcode the hardware-only machine predicts.
    EXPECT_GT(f.pipe.stats().predict.speculated, 0u);
}

TEST(Timing, CompilerModeIgnoresNormalLoads)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    for (int i = 0; i < 20; ++i) {
        RetiredInst ld =
            makeRetired(7, build::load(LoadSpec::Normal, 10, 1, 0));
        ld.effAddr = 0x500 + static_cast<uint32_t>(i) * 8;
        ld.nextPc = 8;
        f.pipe.retire(ld);
    }
    f.finishChecked();
    EXPECT_EQ(f.pipe.stats().predict.speculated, 0u);
    EXPECT_EQ(f.pipe.stats().earlyCalc.speculated, 0u);
    // The table stays clean: ld_n never allocates.
    EXPECT_FALSE(f.pipe.addressTable().present(7));
}

TEST(Timing, SpeculativeMissWarmsCacheForNormalAccess)
{
    // An ld_p with a correct prediction but a cold cache: no forward
    // (DCache_Hit fails) but the fill starts early, so the normal
    // access completes sooner than a plain cold ld_n.
    MachineConfig cfg = MachineConfig::proposed();
    auto strided = [](StreamFeeder &f, LoadSpec spec, int iters) {
        for (int i = 0; i < iters; ++i) {
            RetiredInst ld = makeRetired(30, build::load(spec, 10, 1, 0));
            // New cache block every iteration: always cold.
            ld.effAddr = 0x10000 + static_cast<uint32_t>(i) * 64;
            ld.nextPc = 31;
            f.pipe.retire(ld);
            RetiredInst use = makeRetired(31, build::add(11, 10, 10));
            use.nextPc = 32;
            f.pipe.retire(use);
        }
    };
    StreamFeeder pred(cfg);
    strided(pred, LoadSpec::Predict, 40);
    StreamFeeder norm(cfg);
    strided(norm, LoadSpec::Normal, 40);
    EXPECT_LT(pred.cycles(), norm.cycles());
}

TEST(Timing, InstructionAndLoadCountsAreExact)
{
    StreamFeeder f(base());
    f.feed(build::add(10, 1, 2));
    f.feed(build::load(LoadSpec::Normal, 11, 1, 0), 0x10);
    f.feed(build::store(11, 1, 4), 0x14);
    f.feed(build::halt());
    f.finishChecked();
    EXPECT_EQ(f.pipe.stats().instructions, 4u);
    EXPECT_EQ(f.pipe.stats().loads, 1u);
    EXPECT_EQ(f.pipe.stats().stores, 1u);
}

namespace {

/** Counts every observer callback, for wiring checks. */
struct CountingObserver : Observer
{
    uint64_t dispatches = 0;
    uint64_t verifies = 0;
    uint64_t forwards = 0;
    uint64_t stalls = 0;
    uint64_t forwardedOutcomes = 0;

    void
    onSpecDispatch(const RetiredInst &, LoadPath, uint32_t,
                   uint64_t) override
    {
        ++dispatches;
    }

    void
    onVerify(const RetiredInst &, LoadPath, SpecOutcome outcome,
             uint64_t) override
    {
        ++verifies;
        if (outcome == SpecOutcome::Forwarded)
            ++forwardedOutcomes;
    }

    void
    onForward(const RetiredInst &, LoadPath, int, uint64_t) override
    {
        ++forwards;
    }

    void
    onStall(const RetiredInst &, StallKind, uint64_t) override
    {
        ++stalls;
    }
};

/** The strided ld_p loop from PredictedLoadSavesOneCycle. */
void
runStridedLoop(StreamFeeder &f, LoadSpec spec, int iters = 50)
{
    for (int i = 0; i < iters; ++i) {
        RetiredInst ld = makeRetired(100, build::load(spec, 10, 1, 0));
        ld.effAddr = 0x1000 + static_cast<uint32_t>(i) * 4;
        ld.nextPc = 101;
        f.pipe.retire(ld);
        RetiredInst use = makeRetired(101, build::add(11, 10, 10));
        use.nextPc = 102;
        f.pipe.retire(use);
        RetiredInst br =
            makeRetired(102, build::branch(Opcode::BLT, 5, 6, 100));
        br.taken = i + 1 < iters;
        br.nextPc = br.taken ? 100 : 103;
        f.pipe.retire(br);
    }
}

} // namespace

TEST(Observer, TelemetryRecordsPerPcOutcomes)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    LoadTelemetry telemetry;
    f.pipe.attach(&telemetry);
    runStridedLoop(f, LoadSpec::Predict);
    f.finishChecked();

    ASSERT_EQ(telemetry.loads().size(), 1u);
    const LoadRecord &rec = telemetry.loads().at(100);
    EXPECT_EQ(rec.path, LoadPath::Predict);
    EXPECT_EQ(rec.executed, 50u);
    EXPECT_GT(rec.forwarded(), 30u);
    EXPECT_GT(rec.forwardRate(), 0.6);
    // Telemetry agrees with the aggregate counters exactly.
    EXPECT_EQ(rec.executed, f.pipe.stats().predict.executed);
    EXPECT_EQ(rec.speculated, f.pipe.stats().predict.speculated);
    EXPECT_EQ(rec.forwarded(), f.pipe.stats().predict.forwarded);
    EXPECT_EQ(telemetry.totalExecuted(), f.pipe.stats().loads);
}

TEST(Observer, TelemetryDominantFailureForUnboundBase)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    LoadTelemetry telemetry;
    f.pipe.attach(&telemetry);
    // First ld_e: R_addr empty; second at another PC with a different
    // base register: still not bound to it.
    f.feed(build::load(LoadSpec::EarlyCalc, 10, 1, 0), 0x100);
    f.feed(build::load(LoadSpec::EarlyCalc, 11, 2, 0), 0x200);
    f.finishChecked();

    ASSERT_EQ(telemetry.loads().size(), 2u);
    for (const auto &kv : telemetry.loads()) {
        EXPECT_EQ(kv.second.path, LoadPath::EarlyCalc);
        EXPECT_EQ(kv.second.count(SpecOutcome::NotBound), 1u);
        EXPECT_EQ(kv.second.dominantFailure(), SpecOutcome::NotBound);
        EXPECT_EQ(kv.second.forwarded(), 0u);
    }
}

TEST(Observer, CallbacksMatchAggregateCounters)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    CountingObserver counter;
    f.pipe.attach(&counter);
    runStridedLoop(f, LoadSpec::Predict);
    f.finishChecked();

    const PipelineStats &s = f.pipe.stats();
    // Every executed load gets exactly one verify verdict.
    EXPECT_EQ(counter.verifies, s.loads);
    // Every speculative dispatch and forward is reported.
    EXPECT_EQ(counter.dispatches, s.predict.speculated);
    EXPECT_EQ(counter.forwards, s.predict.forwarded);
    EXPECT_EQ(counter.forwardedOutcomes, counter.forwards);
}

TEST(Observer, MultipleObserversAllReceiveEvents)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    CountingObserver a, b;
    LoadTelemetry telemetry;
    f.pipe.attach(&a);
    f.pipe.attach(&b);
    f.pipe.attach(&telemetry);
    runStridedLoop(f, LoadSpec::Predict, 20);
    f.finishChecked();

    EXPECT_GT(a.verifies, 0u);
    EXPECT_EQ(a.verifies, b.verifies);
    EXPECT_EQ(a.forwards, b.forwards);
    EXPECT_EQ(telemetry.totalExecuted(), a.verifies);
}

TEST(Observer, HistogramsPopulatedByTimedRun)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    runStridedLoop(f, LoadSpec::Predict);
    const PipelineStats &s = f.finishChecked();

    // One latency sample per executed load.
    EXPECT_EQ(s.loadLatency.samples(), s.loads);
    // Forwarded ld_p loads have latency 1: bucket 1 is populated.
    EXPECT_GE(s.loadLatency.bucket(1), s.predict.forwarded);
    // The table trained on a steady stride: confidence streaks grew.
    EXPECT_GT(s.strideConfidence.samples(), 0u);
    EXPECT_GT(s.strideConfidence.mean(), 0.0);
}

TEST(Observer, BindLifetimeHistogramTracksRaddrResidency)
{
    MachineConfig cfg = MachineConfig::proposed();
    StreamFeeder f(cfg);
    // Rebind R_addr repeatedly with spaced ld_e loads on the same
    // base register; each rebind samples the previous residency.
    for (int i = 0; i < 10; ++i) {
        f.feed(build::load(LoadSpec::EarlyCalc, 10, 1,
                           static_cast<int16_t>(i * 4)),
               0x100 + static_cast<uint32_t>(i) * 4);
        for (int j = 0; j < 4; ++j)
            f.feed(build::add(20, 20, 2));
    }
    const PipelineStats &s = f.finishChecked();
    EXPECT_GT(s.bindLifetime.samples(), 0u);
}
