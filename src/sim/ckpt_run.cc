#include "sim/ckpt_run.hh"

#include "ckpt/checkpoint.hh"
#include "obs/span.hh"
#include "sim/decoded.hh"
#include "sim/run_cache.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"

namespace elag {
namespace sim {

CkptRunKey
makeRunKey(const CompiledProgram &prog,
           const pipeline::MachineConfig &machine,
           const pipeline::MachineConfig &baseline,
           uint64_t max_instructions, bool has_checker,
           const verify::FaultInjector *injector)
{
    CkptRunKey key;
    key.programHash = hashProgram(prog.code.program);
    key.machineHash = hashConfig(machine);
    key.baselineHash = hashConfig(baseline);
    key.maxInstructions = max_instructions;
    key.hasChecker = has_checker;
    if (injector) {
        key.injectorPlan = injector->plan().name;
        key.injectorSeed = injector->seed();
    }
    return key;
}

void
serialize(ckpt::Writer &w, const CkptRunKey &key)
{
    w.u64(key.programHash);
    w.u64(key.machineHash);
    w.u64(key.baselineHash);
    w.u64(key.maxInstructions);
    w.b(key.hasChecker);
    w.str(key.injectorPlan);
    w.u64(key.injectorSeed);
}

void
restore(ckpt::Reader &r, CkptRunKey &key)
{
    key.programHash = r.u64();
    key.machineHash = r.u64();
    key.baselineHash = r.u64();
    key.maxInstructions = r.u64();
    key.hasChecker = r.b();
    key.injectorPlan = r.str();
    key.injectorSeed = r.u64();
}

uint64_t
hashRunKey(const CkptRunKey &key)
{
    // Each plan character is folded as a whole 64-bit word.
    Fnv1a h;
    h.mix(key.programHash);
    h.mix(key.machineHash);
    h.mix(key.baselineHash);
    h.mix(key.maxInstructions);
    h.mix(key.hasChecker ? 1 : 0);
    h.mix(key.injectorPlan.size());
    for (char c : key.injectorPlan)
        h.mix(static_cast<uint8_t>(c));
    h.mix(key.injectorSeed);
    return h.value();
}

ResumableTimedRun::ResumableTimedRun(const CompiledProgram &prog,
                                     const pipeline::MachineConfig &machine,
                                     uint64_t max_instructions)
    : pipe_(machine), emu_(prog.code.program),
      maxInst_(max_instructions),
      wallStart_(std::chrono::steady_clock::now())
{
}

void
ResumableTimedRun::attach(pipeline::Observer *observer)
{
    pipe_.attach(observer);
}

void
ResumableTimedRun::step(uint64_t budget, const Watchdog &watchdog)
{
    if (done_)
        return;
    uint64_t left = maxInst_ - acc_.instructions;
    uint64_t chunk = budget < left ? budget : left;

    obs::SpanTracer &tracer = obs::SpanTracer::process();
    const bool tracing = tracer.enabled();
    EmulationResult part;
    if (!watchdog.maxCycles && !watchdog.maxWallMs && !tracing) {
        // Most runs arm no watchdog and no tracer; keep the per-retire
        // callback down to the pipeline hand-off in that case.
        part = emu_.run(chunk, [&](const pipeline::RetiredInst &ri) {
            pipe_.retire(ri);
        });
    } else {
        // With the tracer armed, cut the step into slice spans so a
        // long simulation shows progress structure in the trace viewer
        // instead of one opaque block; the step closes its last,
        // partial slice. maxCycles bounds the whole (possibly resumed)
        // run, the wall clock this process's attempt.
        constexpr uint64_t kSliceRetires = 1u << 20;
        uint64_t retired = acc_.instructions;
        uint64_t sliceBase = retired;
        uint64_t sliceStartUs = tracing ? tracer.nowMicros() : 0;
        auto closeSlice = [&] {
            uint64_t now = tracer.nowMicros();
            tracer.record("sim.slice", "sim", sliceStartUs,
                          now - sliceStartUs,
                          {{"retired", std::to_string(retired)},
                           {"cycle",
                            std::to_string(pipe_.currentCycle())}});
            sliceStartUs = now;
            sliceBase = retired;
        };
        part = emu_.run(chunk, [&](const pipeline::RetiredInst &ri) {
            pipe_.retire(ri);
            ++retired;
            if (tracing && retired - sliceBase >= kSliceRetires)
                closeSlice();
            if (watchdog.maxWallMs && (retired & 0xfff) == 0) {
                auto elapsed =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - wallStart_)
                        .count();
                if (static_cast<uint64_t>(elapsed) > watchdog.maxWallMs) {
                    throw SimTimeoutError(
                        SimTimeoutError::Kind::WallClock,
                        watchdog.maxWallMs,
                        formatString("watchdog: run exceeded %llu ms "
                                     "of wall clock",
                                     static_cast<unsigned long long>(
                                         watchdog.maxWallMs)));
                }
            }
            if (watchdog.maxCycles &&
                pipe_.currentCycle() > watchdog.maxCycles) {
                throw SimTimeoutError(
                    SimTimeoutError::Kind::Cycles, watchdog.maxCycles,
                    formatString("watchdog: simulation passed cycle "
                                 "%llu",
                                 static_cast<unsigned long long>(
                                     watchdog.maxCycles)));
            }
        });
        if (tracing && retired > sliceBase)
            closeSlice();
    }

    acc_.instructions += part.instructions;
    acc_.output.insert(acc_.output.end(), part.output.begin(),
                       part.output.end());
    acc_.halted = part.halted;
    acc_.exitValue = part.exitValue;
    done_ = part.halted || acc_.instructions >= maxInst_;
}

TimedResult
ResumableTimedRun::finish()
{
    TimedResult result;
    result.pipe = pipe_.finish();
    result.emulation = acc_;
    return result;
}

void
ResumableTimedRun::serialize(ckpt::Writer &w) const
{
    w.u64(maxInst_);
    emu_.serialize(w);
    pipe_.serialize(w);
    sim::serialize(w, acc_);
    w.b(done_);
}

void
ResumableTimedRun::restore(ckpt::Reader &r)
{
    uint64_t max_inst = r.u64();
    if (max_inst != maxInst_) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "instruction-cap mismatch");
    }
    emu_.restore(r);
    pipe_.restore(r);
    sim::restore(r, acc_);
    done_ = r.b();
    wallStart_ = std::chrono::steady_clock::now();
}

namespace {

/** Section names of the checkpointed stats-run container. */
constexpr char kSecMeta[5] = "META"; ///< run key + phase
constexpr char kSecBase[5] = "BASE"; ///< completed baseline result
constexpr char kSecRuns[5] = "RUNS"; ///< in-flight phase run state
constexpr char kSecTele[5] = "TELE"; ///< load telemetry table
constexpr char kSecChkr[5] = "CHKR"; ///< invariant-checker shadows
constexpr char kSecFalt[5] = "FALT"; ///< fault-injector stream

/**
 * Restore @p observer from section @p tag when it is attached; a
 * snapshot taken without it cannot resume a run that has it.
 */
template <typename T>
void
restoreAttached(const ckpt::CheckpointReader &ck, const char (&tag)[5],
                T *observer, const char *what)
{
    if (!observer)
        return;
    if (!ck.has(tag)) {
        throw ckpt::CkptError(
            ckpt::ErrorKind::Mismatch,
            formatString("checkpoint carries no %s section", what));
    }
    ckpt::Reader r = ck.section(tag);
    observer->restore(r);
}

} // anonymous namespace

CkptStatsOutcome
runTimedCheckpointed(const CompiledProgram &prog,
                     const pipeline::MachineConfig &machine,
                     const pipeline::MachineConfig &baseline,
                     uint64_t max_instructions,
                     pipeline::LoadTelemetry *telemetry,
                     verify::InvariantChecker *checker,
                     verify::FaultInjector *injector,
                     const Watchdog &watchdog, const CkptPolicy &policy,
                     const std::string &resume_from)
{
    CkptStatsOutcome out;
    const CkptRunKey key =
        makeRunKey(prog, machine, baseline, max_instructions,
                   checker != nullptr, injector);

    // Phase 0 runs the baseline machine observer-free; phase 1 runs
    // the configured machine with the observers attached — the same
    // structure (and hence the same event streams) as the served
    // path's two RunCache runs.
    ResumableTimedRun baseRun(prog, baseline, max_instructions);
    ResumableTimedRun timedRun(prog, machine, max_instructions);
    if (telemetry)
        timedRun.attach(telemetry);
    if (checker)
        timedRun.attach(checker);

    uint8_t phase = 0;

    if (!resume_from.empty()) {
        ckpt::CheckpointReader ck =
            ckpt::CheckpointReader::fromFile(resume_from);
        ckpt::Reader meta = ck.section(kSecMeta);
        CkptRunKey fileKey;
        restore(meta, fileKey);
        if (!(fileKey == key)) {
            throw ckpt::CkptError(
                ckpt::ErrorKind::Mismatch,
                "checkpoint belongs to a different run (program, "
                "machine, cap, or observer set differs)");
        }
        phase = meta.u8();
        if (phase > 1) {
            throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                                  "invalid checkpoint phase");
        }
        if (phase == 0) {
            ckpt::Reader runs = ck.section(kSecRuns);
            baseRun.restore(runs);
        } else {
            ckpt::Reader bs = ck.section(kSecBase);
            pipeline::restore(bs, out.base.pipe);
            sim::restore(bs, out.base.emulation);
            ckpt::Reader runs = ck.section(kSecRuns);
            timedRun.restore(runs);
            restoreAttached(ck, kSecTele, telemetry, "telemetry");
            restoreAttached(ck, kSecChkr, checker, "checker");
            restoreAttached(ck, kSecFalt, injector, "fault-injector");
        }
        out.resumed = true;
    }

    // Snapshot write failures degrade to a warning: losing a snapshot
    // costs resumability, not correctness, and must never kill a run
    // that would otherwise finish.
    auto snapshot = [&](uint8_t ph) {
        if (policy.path.empty())
            return;
        try {
            ckpt::CheckpointWriter cw;
            ckpt::Writer &meta = cw.section(kSecMeta);
            serialize(meta, key);
            meta.u8(ph);
            if (ph == 1) {
                ckpt::Writer &bs = cw.section(kSecBase);
                pipeline::serialize(bs, out.base.pipe);
                sim::serialize(bs, out.base.emulation);
            }
            (ph == 0 ? baseRun : timedRun).serialize(cw.section(kSecRuns));
            if (ph == 1) {
                if (telemetry)
                    telemetry->serialize(cw.section(kSecTele));
                if (checker)
                    checker->serialize(cw.section(kSecChkr));
                if (injector)
                    injector->serialize(cw.section(kSecFalt));
            }
            cw.writeFile(policy.path);
            ++out.snapshots;
        } catch (const ckpt::CkptError &e) {
            warn("checkpoint snapshot to '%s' failed (%s): %s",
                 policy.path.c_str(), ckpt::name(e.kind()), e.what());
        }
    };

    const uint64_t chunk =
        policy.everyRetires ? policy.everyRetires : kDefaultCkptRetires;

    // One chunk loop for both phases: each boundary polls for an
    // interrupt, then snapshots, so an interrupted run stays resumable.
    for (;;) {
        ResumableTimedRun &run = phase == 0 ? baseRun : timedRun;
        run.step(chunk, watchdog);
        if (run.done()) {
            if (phase == 1)
                break;
            out.base = baseRun.finish();
            phase = 1;
            // Persist the phase transition so a kill early in the timed
            // run resumes past the whole baseline.
            snapshot(1);
            continue;
        }
        bool stop = policy.interrupted && policy.interrupted();
        snapshot(phase);
        if (stop) {
            out.interrupted = true;
            return out;
        }
    }
    out.timed = timedRun.finish();

    if (!policy.path.empty())
        ckpt::removeSnapshot(policy.path);
    return out;
}

} // namespace sim
} // namespace elag
