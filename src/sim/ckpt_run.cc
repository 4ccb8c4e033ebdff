#include "sim/ckpt_run.hh"

#include <unistd.h>

#include "ckpt/checkpoint.hh"
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

    // Watchdog limits are enforced per retire, exactly like the
    // instrumented path of runTimed(): maxRetires / maxCycles are
    // totals over the whole (possibly resumed) run, the wall clock
    // covers this process's attempt.
    uint64_t before = acc_.instructions;
    uint64_t local = 0;
    bool guarded = watchdog.maxRetires || watchdog.maxCycles ||
                   watchdog.maxWallMs;

    EmulationResult part = emu_.run(
        chunk, [&](const pipeline::RetiredInst &ri) {
            pipe_.retire(ri);
            if (!guarded)
                return;
            ++local;
            uint64_t total = before + local;
            if (watchdog.maxWallMs && (total & 0xfff) == 0) {
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
            if (watchdog.maxRetires && total > watchdog.maxRetires) {
                throw SimTimeoutError(
                    SimTimeoutError::Kind::Retires, watchdog.maxRetires,
                    formatString("watchdog: more than %llu "
                                 "instructions retired",
                                 static_cast<unsigned long long>(
                                     watchdog.maxRetires)));
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
    // structure (and hence the same event streams) as the
    // non-checkpointed elagc stats path.
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
            if (telemetry) {
                if (!ck.has(kSecTele)) {
                    throw ckpt::CkptError(
                        ckpt::ErrorKind::Mismatch,
                        "checkpoint carries no telemetry section");
                }
                ckpt::Reader t = ck.section(kSecTele);
                telemetry->restore(t);
            }
            if (checker) {
                if (!ck.has(kSecChkr)) {
                    throw ckpt::CkptError(
                        ckpt::ErrorKind::Mismatch,
                        "checkpoint carries no checker section");
                }
                ckpt::Reader c = ck.section(kSecChkr);
                checker->restore(c);
            }
            if (injector) {
                if (!ck.has(kSecFalt)) {
                    throw ckpt::CkptError(
                        ckpt::ErrorKind::Mismatch,
                        "checkpoint carries no fault-injector section");
                }
                ckpt::Reader f = ck.section(kSecFalt);
                injector->restore(f);
            }
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
            ckpt::Writer &runs = cw.section(kSecRuns);
            if (ph == 0)
                baseRun.serialize(runs);
            else
                timedRun.serialize(runs);
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
            ++out.snapshotFailures;
            warn("checkpoint snapshot to '%s' failed (%s): %s",
                 policy.path.c_str(), ckpt::name(e.kind()), e.what());
        }
    };

    const uint64_t chunk =
        policy.everyRetires ? policy.everyRetires : kDefaultCkptRetires;

    if (phase == 0) {
        while (!baseRun.done()) {
            baseRun.step(chunk, watchdog);
            if (baseRun.done())
                break;
            if (policy.interrupted && policy.interrupted()) {
                snapshot(0);
                out.interrupted = true;
                return out;
            }
            snapshot(0);
        }
        out.base = baseRun.finish();
        phase = 1;
        // Persist the phase transition so a kill early in the timed
        // run resumes past the whole baseline.
        snapshot(1);
    }

    while (!timedRun.done()) {
        timedRun.step(chunk, watchdog);
        if (timedRun.done())
            break;
        if (policy.interrupted && policy.interrupted()) {
            snapshot(1);
            out.interrupted = true;
            return out;
        }
        snapshot(1);
    }
    out.timed = timedRun.finish();

    if (!policy.path.empty() && policy.deleteOnSuccess)
        ::unlink(policy.path.c_str());
    return out;
}

} // namespace sim
} // namespace elag
