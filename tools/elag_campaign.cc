/**
 * @file
 * elag_campaign — crash-isolated, resumable campaign runner.
 *
 * The paper's evaluation is a large sweep of workloads x fault plans
 * x machine configs; run in-process, one crashed or hung job takes
 * the whole sweep down and loses every finished result. This tool
 * executes each job in a sandboxed worker subprocess (its own process
 * group, rlimit caps, wall-clock kill), classifies every outcome into
 * a crash taxonomy, retries transient failures with exponential
 * backoff, appends every result to a durable JSONL manifest so a
 * killed campaign resumes exactly where it stopped, and runs delta
 * debugging over failing jobs to emit a minimal reproducer command.
 *
 * It is also the differential fault-injection soak. A gen/workload
 * worker runs each program clean on the baseline and the job machine,
 * then under every plan of its group, with the invariant checker and
 * watchdog attached, and requires architectural results identical to
 * the clean run. A passing worker's result line (programs, runs,
 * faults_fired, events_checked, timing_moved) becomes the job line's
 * "result" and is summed into elag_campaign_<field>_total counters,
 * so the manifest's metrics line shows what the sweep covered.
 *
 * Coordinator (default mode):
 *   elag_campaign --gen-programs=40 --gen-chunk=5 --plans=graceful
 *                 --machines=baseline,proposed --manifest=run.jsonl
 *   elag_campaign --resume --manifest=run.jsonl      # pick up a crash
 *
 * With --checkpoint-dir=DIR every gen/workload worker also writes a
 * durable per-job progress checkpoint (DIR/job-<hash>.ckpt, recorded
 * in the job's manifest line). A worker that is killed mid-job —
 * wall-clock timeout, OOM, SIGKILL — resumes past its completed
 * programs on the next attempt instead of starting over, and
 * --resume therefore continues interrupted jobs from their last
 * durable checkpoint rather than from scratch.
 *   elag_campaign --workloads=130.li,132.ijpeg --plans=chaos+tag-alias
 *   elag_campaign --scenarios=matrix-dir --plans=chaos  # synthetic
 *   elag_campaign --bench=build/bench/bench_table2   # batch bench runs
 *
 * Worker (one job, in-process simulation; what the coordinator spawns
 * and what a shrunk reproducer invokes):
 *   elag_campaign --worker --workload=gen --gen-seed=1 --gen-skip=7
 *                 --gen-count=1 --machine=proposed --plans=chaos ...
 *
 * Crash taxonomy recorded per job: clean, invariant-violation (exit
 * 70), timeout (exit 75 or external wall-clock kill), signal, oom
 * (uninvited SIGKILL), error (other nonzero exit), flaky-then-passed
 * (failed, then passed on retry), start-failed.
 *
 * Exit codes: 0 campaign green, 1 completed with failing jobs,
 * 2 usage, 3 incomplete (--max-jobs stop), 130/143 interrupted by
 * SIGINT/SIGTERM (manifest flushed first). Worker mode mirrors elagc:
 * 0/1/70/75.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"
#include "support/backoff.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/subprocess.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"
#include "verify/shrinker.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/synthetic/scenario.hh"
#include "workloads/workloads.hh"

using namespace elag;

namespace {

volatile std::sig_atomic_t gStopSignal = 0;

/** Ceiling of one retry backoff sleep; shard respawns use 5 s too. */
constexpr uint64_t kMaxBackoffMs = 5000;

extern "C" void
onStopSignal(int sig)
{
    gStopSignal = sig;
}

void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/** splitmix64-style mixer for derived per-run fault seeds. */
uint64_t
mixSeed(uint64_t base, uint64_t salt)
{
    uint64_t z = base + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
fnv1a64(const std::string &s)
{
    Fnv1a h;
    h.mixBytes(s.data(), s.size());
    return h.value();
}

/** Harness self-test hooks the worker honours in place of real plans. */
bool
isPseudoPlan(const std::string &name)
{
    return name == "test-crash" || name == "test-hang" ||
           name == "test-flaky";
}

bool
knownPlan(const std::string &name)
{
    if (isPseudoPlan(name))
        return true;
    try {
        verify::planByName(name);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

// =====================================================================
// Worker mode: one sandboxed job, simulated in-process.
// =====================================================================

struct WorkerOptions
{
    std::string workload = "gen"; ///< "gen" or a named workload
    /** Scenario-spec file; when set, overrides workload. The worker
     * regenerates the program from the spec deterministically, so
     * only the small spec document crosses the process boundary. */
    std::string scenarioPath;
    uint64_t genSeed = 1;
    uint64_t genSkip = 0;
    uint64_t genCount = 1;
    std::vector<uint64_t> genPick; ///< offsets to run; empty = all
    std::string machine = "proposed";
    std::string selection;
    std::vector<std::string> plans;
    uint64_t injectSeed = 1;
    uint64_t maxInst = 20'000'000;
    uint64_t maxCycles = 100'000'000;
    uint64_t maxWallMs = 0;
    uint64_t attempt = 1;
    std::string checkpointPath;
};

/**
 * Canonical identity of one worker job, stored inside its progress
 * checkpoint so a stale file from a different job parameterisation is
 * rejected (Mismatch) instead of silently fast-forwarding the wrong
 * run.
 */
std::string
workerIdentity(const WorkerOptions &opts)
{
    std::string id = opts.workload + "|" +
                     std::to_string(opts.genSeed) + "|" +
                     std::to_string(opts.genSkip) + "|" +
                     std::to_string(opts.genCount) + "|" +
                     opts.machine + "|" + opts.selection + "|" +
                     joinStrings(opts.plans, ",") + "|" +
                     std::to_string(opts.injectSeed) + "|" +
                     std::to_string(opts.maxInst);
    for (uint64_t pick : opts.genPick)
        id += "|p" + std::to_string(pick);
    if (!opts.scenarioPath.empty())
        id += "|scn:" + opts.scenarioPath;
    return id;
}

/** Running totals of one worker job: its manifest result line. */
struct WorkerTotals
{
    uint64_t runs = 0;
    uint64_t faultsFired = 0;
    uint64_t eventsChecked = 0;
    /** Faulted runs whose cycle count differs from the clean run. */
    uint64_t timingMoved = 0;
};

/** Persist worker progress: identity + completed-program prefix. */
void
writeWorkerCheckpoint(const WorkerOptions &opts, uint64_t completed,
                      const WorkerTotals &totals)
{
    ckpt::CheckpointWriter w;
    w.section("META").str(workerIdentity(opts));
    ckpt::Writer &prog = w.section("PROG");
    prog.varint(completed);
    prog.varint(totals.runs);
    prog.varint(totals.faultsFired);
    prog.varint(totals.eventsChecked);
    prog.varint(totals.timingMoved);
    w.writeFile(opts.checkpointPath);
}

/**
 * Restore worker progress; throws CkptError (Mismatch when the file
 * belongs to a different job, container errors otherwise).
 */
uint64_t
loadWorkerCheckpoint(const WorkerOptions &opts, WorkerTotals &totals)
{
    auto r = ckpt::CheckpointReader::fromFile(opts.checkpointPath);
    if (r.section("META").str() != workerIdentity(opts))
        throw ckpt::CkptError(
            ckpt::ErrorKind::Mismatch,
            "checkpoint belongs to a different job");
    ckpt::Reader prog = r.section("PROG");
    uint64_t completed = prog.varint();
    totals.runs = prog.varint();
    totals.faultsFired = prog.varint();
    totals.eventsChecked = prog.varint();
    totals.timingMoved = prog.varint();
    return completed;
}

bool
sameArchitecture(const sim::EmulationResult &a,
                 const sim::EmulationResult &b)
{
    return a.output == b.output && a.exitValue == b.exitValue &&
           a.instructions == b.instructions && a.halted == b.halted;
}

[[noreturn]] void
hangForever()
{
    for (;;) {
        struct timespec nap = {0, 50'000'000};
        nanosleep(&nap, nullptr);
    }
}

/**
 * Run every (program, plan) pair of one job. Throws PanicError on an
 * invariant violation (exit 70 upstream), SimTimeoutError on watchdog
 * trips (75), FatalError on compile/config trouble (1); returns
 * nonzero on differential mismatch.
 */
int
runWorker(const WorkerOptions &opts)
{
    setQuiet(true);
    sim::Watchdog watchdog;
    watchdog.maxCycles = opts.maxCycles;
    watchdog.maxWallMs = opts.maxWallMs;

    std::vector<std::string> sources;
    std::vector<uint64_t> indices; ///< absolute gen index per source
    if (!opts.scenarioPath.empty()) {
        std::ifstream in(opts.scenarioPath);
        if (!in)
            fatal("cannot open scenario '%s'",
                  opts.scenarioPath.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        workloads::synthetic::ScenarioSpec spec;
        std::string error;
        if (!workloads::synthetic::parseScenarioSpec(text.str(), spec,
                                                     error))
            fatal("bad scenario '%s': %s", opts.scenarioPath.c_str(),
                  error.c_str());
        sources.push_back(
            workloads::synthetic::generateScenario(spec).source);
        indices.push_back(0);
    } else if (opts.workload == "gen") {
        verify::ProgramGen gen(opts.genSeed);
        gen.skip(opts.genSkip);
        for (uint64_t c = 0; c < opts.genCount; ++c) {
            std::string src = gen.generate();
            if (!opts.genPick.empty() &&
                std::find(opts.genPick.begin(), opts.genPick.end(), c) ==
                    opts.genPick.end()) {
                continue; // advance the stream, skip the run
            }
            sources.push_back(std::move(src));
            indices.push_back(opts.genSkip + c);
        }
    } else {
        const workloads::Workload *w =
            workloads::findWorkload(opts.workload);
        if (!w)
            fatal("unknown workload '%s'", opts.workload.c_str());
        sources.push_back(w->source);
        indices.push_back(0);
    }

    const pipeline::MachineConfig machine =
        sim::machineConfig(opts.machine, opts.selection);
    WorkerTotals totals;

    // Resume a killed attempt past its fully-soaked programs. An
    // unusable checkpoint (different job, torn, corrupt) is never
    // restored: start clean and overwrite it at the next snapshot.
    uint64_t resumeAt = 0;
    if (!opts.checkpointPath.empty() &&
        ckpt::fileExists(opts.checkpointPath)) {
        try {
            resumeAt = loadWorkerCheckpoint(opts, totals);
            if (resumeAt > sources.size())
                throw ckpt::CkptError(
                    ckpt::ErrorKind::Mismatch,
                    "checkpoint progress exceeds the job size");
            std::fprintf(
                stderr,
                "worker: resumed from '%s' at program %llu/%zu\n",
                opts.checkpointPath.c_str(),
                static_cast<unsigned long long>(resumeAt),
                sources.size());
        } catch (const ckpt::CkptError &e) {
            std::fprintf(stderr,
                         "worker: unusable checkpoint '%s' (%s: %s); "
                         "starting clean\n",
                         opts.checkpointPath.c_str(),
                         ckpt::name(e.kind()), e.what());
            resumeAt = 0;
            totals = WorkerTotals{};
        }
    }

    for (size_t s = resumeAt; s < sources.size(); ++s) {
        auto prog = sim::compile(sources[s]);

        // Clean differential reference: baseline vs. job machine,
        // invariant checker attached to the machine under test.
        auto base =
            sim::runTimed(prog, pipeline::MachineConfig::baseline(),
                          opts.maxInst, {}, watchdog);
        verify::InvariantChecker cleanChecker;
        auto clean = sim::runTimed(prog, machine, opts.maxInst,
                                   {&cleanChecker}, watchdog);
        cleanChecker.finish(clean.pipe);
        totals.eventsChecked += cleanChecker.eventsChecked();
        totals.runs += 2;
        if (!clean.emulation.halted || !base.emulation.halted) {
            std::fprintf(stderr,
                         "worker: program %llu did not halt within "
                         "the instruction cap\n",
                         static_cast<unsigned long long>(indices[s]));
            return 1;
        }
        if (!sameArchitecture(base.emulation, clean.emulation)) {
            std::fprintf(stderr,
                         "worker: program %llu: baseline and %s "
                         "machine diverged on the clean run\n",
                         static_cast<unsigned long long>(indices[s]),
                         opts.machine.c_str());
            return 1;
        }

        for (size_t pl = 0; pl < opts.plans.size(); ++pl) {
            const std::string &planName = opts.plans[pl];
            if (planName == "test-crash") {
                std::fprintf(stderr, "worker: test-crash firing\n");
                std::abort();
            }
            if (planName == "test-hang") {
                std::fprintf(stderr, "worker: test-hang firing\n");
                hangForever();
            }
            if (planName == "test-flaky") {
                if (opts.attempt <= 1) {
                    std::fprintf(
                        stderr,
                        "worker: test-flaky firing on attempt 1\n");
                    std::abort();
                }
                continue; // passes from the second attempt on
            }

            verify::FaultPlan plan = verify::planByName(planName);
            pipeline::MachineConfig cfg = machine;
            // Deliberate-bug plans must trip deterministically: route
            // every load through the bypassed check and force the
            // guarded condition to be violated on the first
            // opportunity.
            if (plan.bypassAddressCheck || plan.bypassInterlockCheck) {
                cfg.selection = pipeline::SelectionPolicy::AllPredict;
                if (plan.bypassAddressCheck)
                    plan.verifyFailRate = 1.0;
                if (plan.bypassInterlockCheck)
                    plan.forceInterlockRate = 1.0;
            }
            verify::FaultInjector injector(
                plan, mixSeed(opts.injectSeed, indices[s] * 64 + pl));
            cfg.faultInjector = &injector;
            verify::InvariantChecker checker;
            auto faulted = sim::runTimed(prog, cfg, opts.maxInst,
                                         {&checker}, watchdog);
            checker.finish(faulted.pipe);
            ++totals.runs;
            totals.eventsChecked += checker.eventsChecked();
            totals.faultsFired += injector.counts().total();
            if (faulted.pipe.cycles != clean.pipe.cycles)
                ++totals.timingMoved;
            if (!sameArchitecture(faulted.emulation, clean.emulation)) {
                std::fprintf(
                    stderr,
                    "worker: MISMATCH program %llu plan %s: "
                    "architectural results differ from the clean "
                    "run\n",
                    static_cast<unsigned long long>(indices[s]),
                    planName.c_str());
                return 1;
            }
        }

        // One snapshot per fully-soaked program: a killed worker's
        // next attempt restarts at most one program back.
        if (!opts.checkpointPath.empty()) {
            try {
                writeWorkerCheckpoint(opts, s + 1, totals);
            } catch (const ckpt::CkptError &e) {
                std::fprintf(stderr,
                             "worker: checkpoint write failed (%s); "
                             "continuing unprotected\n",
                             e.what());
            }
        }
    }
    if (!opts.checkpointPath.empty())
        ckpt::removeSnapshot(opts.checkpointPath);

    // Machine-readable success line, spliced into the job's manifest
    // line by the coordinator.
    JsonWriter w(0);
    w.beginObject();
    w.field("programs", static_cast<uint64_t>(sources.size()));
    w.field("runs", totals.runs);
    w.field("faults_fired", totals.faultsFired);
    w.field("events_checked", totals.eventsChecked);
    w.field("timing_moved", totals.timingMoved);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// =====================================================================
// Coordinator mode.
// =====================================================================

/** One sandboxed unit of work. */
struct Job
{
    std::string id;
    std::string kind; ///< "gen", "workload", or "bench"
    std::vector<std::string> argv;
    // Shrink coordinates (gen/workload jobs only).
    std::vector<std::string> plans;
    uint64_t genSkip = 0;
    uint64_t genCount = 0;
    /** Durable progress checkpoint (empty without --checkpoint-dir). */
    std::string ckptPath;
};

struct CampaignOptions
{
    std::string manifestPath = "campaign-manifest.jsonl";
    bool resume = false;
    uint64_t workers = 2;
    uint64_t retries = 1;
    uint64_t backoffMs = 100;
    uint64_t timeoutMs = 120'000;
    uint64_t cpuLimitSec = 0;
    uint64_t memLimitMb = 0;
    uint64_t genPrograms = 0;
    uint64_t genChunk = 5;
    std::vector<std::string> workloadNames;
    /** Scenario-spec files (expanded from --scenarios args). */
    std::vector<std::string> scenarioFiles;
    std::vector<std::string> machines{"proposed"};
    std::vector<std::vector<std::string>> planGroups;
    std::string selection;
    uint64_t seed = 1;
    uint64_t maxInst = 20'000'000;
    uint64_t maxCycles = 100'000'000;
    std::vector<std::string> benches;
    std::string benchOutDir;
    std::string checkpointDir; ///< per-job worker checkpoints
    uint64_t maxJobs = 0; ///< 0 = unlimited
    bool shrink = true;
    bool dryRun = false;
    std::string self; ///< worker binary (default: this binary)
    std::string traceOut; ///< span-trace file; empty disables
};

/**
 * Append-only JSONL result log. Every record is one line, written
 * under a mutex and flushed immediately, so a SIGKILLed coordinator
 * loses at most the line being written — everything already logged
 * survives for --resume, which skips a line cut off mid-record.
 */
class Manifest
{
  public:
    bool
    open(const std::string &path)
    {
        // End a record cut off mid-write so the next one starts a
        // line of its own instead of joining the torn fragment.
        bool torn = false;
        {
            std::ifstream in(path, std::ios::binary | std::ios::ate);
            if (in && in.tellg() > 0) {
                in.seekg(-1, std::ios::end);
                torn = in.get() != '\n';
            }
        }
        file.open(path, std::ios::app);
        if (torn)
            file << '\n';
        return static_cast<bool>(file);
    }

    void
    writeLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex);
        file << line << '\n';
        file.flush();
    }

  private:
    std::ofstream file;
    std::mutex mutex;
};

/** Final classification of one job. */
struct JobOutcome
{
    std::string taxonomy;
    int exitCode = -1;
    int termSignal = 0;
    uint64_t attempts = 0;
    uint64_t wallMs = 0;
    std::string stderrTail;
    /** The settled attempt's stdout: a worker's result line. */
    std::string result;
};

std::string
taxonomyOf(const SubprocessResult &r)
{
    switch (r.status) {
      case SubprocessStatus::TimedOut:
        return "timeout";
      case SubprocessStatus::Signaled:
        return r.oomSuspected() ? "oom" : "signal";
      case SubprocessStatus::StartFailed:
        return "start-failed";
      case SubprocessStatus::Exited:
        break;
    }
    if (r.exitCode == 0)
        return "clean";
    if (r.exitCode == 70)
        return "invariant-violation";
    if (r.exitCode == 75)
        return "timeout";
    return "error";
}

bool
isFailureTaxonomy(const std::string &taxonomy)
{
    return taxonomy != "clean" && taxonomy != "flaky-then-passed";
}

/** Transient-looking failures are retried; deterministic ones not. */
bool
retryable(const std::string &taxonomy)
{
    return taxonomy == "timeout" || taxonomy == "signal" ||
           taxonomy == "oom" || taxonomy == "error" ||
           taxonomy == "start-failed";
}

std::string
tailOf(const std::string &s, size_t n)
{
    return s.size() <= n ? s : s.substr(s.size() - n);
}

std::string
joinArgv(const std::vector<std::string> &argv)
{
    return joinStrings(argv, " ");
}

class Coordinator
{
  public:
    Coordinator(const CampaignOptions &opts) : opts(opts) {}

    int run();

  private:
    std::vector<Job> buildMatrix() const;
    std::vector<std::string> workerArgvBase() const;
    SubprocessResult spawn(const std::vector<std::string> &argv) const;
    JobOutcome runWithRetries(const Job &job);
    void shrinkFailure(const Job &job, const JobOutcome &outcome);
    void recordJob(const Job &job, const JobOutcome &outcome);
    void workerLoop();

    CampaignOptions opts;
    Manifest manifest;
    std::vector<Job> pending;
    std::atomic<size_t> nextJob{0};
    std::mutex statsMutex;
    uint64_t cleanJobs = 0;
    uint64_t flakyJobs = 0;
    uint64_t failedJobs = 0;
    uint64_t shrunkJobs = 0;
};

std::vector<std::string>
Coordinator::workerArgvBase() const
{
    std::vector<std::string> argv{opts.self, "--worker"};
    argv.push_back("--max-inst=" + std::to_string(opts.maxInst));
    argv.push_back("--max-cycles=" + std::to_string(opts.maxCycles));
    if (opts.timeoutMs)
        argv.push_back("--max-wall-ms=" +
                       std::to_string(opts.timeoutMs / 2));
    if (!opts.selection.empty())
        argv.push_back("--selection=" + opts.selection);
    return argv;
}

std::vector<Job>
Coordinator::buildMatrix() const
{
    std::vector<Job> jobs;
    auto planGroupName = [](const std::vector<std::string> &group) {
        return joinStrings(group, "+");
    };
    // Job ids contain '/' and ':'; the checkpoint file is named by
    // the id's hash, which --resume reproduces for the same matrix.
    auto attachCheckpoint = [&](Job &job) {
        if (opts.checkpointDir.empty())
            return;
        job.ckptPath = formatString(
            "%s/job-%016llx.ckpt", opts.checkpointDir.c_str(),
            static_cast<unsigned long long>(fnv1a64(job.id)));
        job.argv.push_back("--checkpoint=" + job.ckptPath);
    };

    for (const std::string &bench : opts.benches) {
        std::string base = bench;
        size_t slash = base.find_last_of('/');
        if (slash != std::string::npos)
            base = base.substr(slash + 1);
        Job job;
        job.id = "bench:" + base;
        job.kind = "bench";
        job.argv = {bench, "--json",
                    "--out=" + opts.benchOutDir + "/" + base + ".json"};
        jobs.push_back(std::move(job));
    }

    for (const std::string &machine : opts.machines) {
        for (const auto &group : opts.planGroups) {
            for (const std::string &name : opts.workloadNames) {
                Job job;
                job.id = "wl:" + name + "/" + machine + "/" +
                         planGroupName(group);
                job.kind = "workload";
                job.plans = group;
                job.argv = workerArgvBase();
                job.argv.push_back("--workload=" + name);
                job.argv.push_back("--machine=" + machine);
                job.argv.push_back("--plans=" + joinStrings(group, ","));
                job.argv.push_back(
                    "--inject-seed=" +
                    std::to_string(mixSeed(opts.seed, fnv1a64(name))));
                attachCheckpoint(job);
                jobs.push_back(std::move(job));
            }
            for (const std::string &path : opts.scenarioFiles) {
                std::string base = path;
                size_t slash = base.find_last_of('/');
                if (slash != std::string::npos)
                    base = base.substr(slash + 1);
                Job job;
                job.id = "scn:" + base + "/" + machine + "/" +
                         planGroupName(group);
                job.kind = "workload";
                job.plans = group;
                job.argv = workerArgvBase();
                job.argv.push_back("--scenario=" + path);
                job.argv.push_back("--machine=" + machine);
                job.argv.push_back("--plans=" +
                                   joinStrings(group, ","));
                job.argv.push_back(
                    "--inject-seed=" +
                    std::to_string(mixSeed(opts.seed, fnv1a64(path))));
                attachCheckpoint(job);
                jobs.push_back(std::move(job));
            }
            for (uint64_t skip = 0; skip < opts.genPrograms;
                 skip += opts.genChunk) {
                uint64_t count =
                    std::min(opts.genChunk, opts.genPrograms - skip);
                Job job;
                job.id = "gen:s" + std::to_string(opts.seed) + ":k" +
                         std::to_string(skip) + "+" +
                         std::to_string(count) + "/" + machine + "/" +
                         planGroupName(group);
                job.kind = "gen";
                job.plans = group;
                job.genSkip = skip;
                job.genCount = count;
                job.argv = workerArgvBase();
                job.argv.push_back("--workload=gen");
                job.argv.push_back("--gen-seed=" +
                                   std::to_string(opts.seed));
                job.argv.push_back("--gen-skip=" + std::to_string(skip));
                job.argv.push_back("--gen-count=" +
                                   std::to_string(count));
                job.argv.push_back("--machine=" + machine);
                job.argv.push_back("--plans=" + joinStrings(group, ","));
                job.argv.push_back(
                    "--inject-seed=" +
                    std::to_string(mixSeed(opts.seed, 1000 + skip)));
                attachCheckpoint(job);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

SubprocessResult
Coordinator::spawn(const std::vector<std::string> &argv) const
{
    SubprocessLimits limits;
    limits.wallTimeoutMs = opts.timeoutMs;
    limits.cpuSeconds = opts.cpuLimitSec;
    limits.addressSpaceBytes = opts.memLimitMb * 1024 * 1024;
    limits.maxCaptureBytes = 64 * 1024;
    return runSubprocess(argv, limits);
}

JobOutcome
Coordinator::runWithRetries(const Job &job)
{
    JobOutcome outcome;
    for (uint64_t attempt = 1;; ++attempt) {
        std::vector<std::string> argv = job.argv;
        if (job.kind != "bench")
            argv.push_back("--attempt=" + std::to_string(attempt));
        SubprocessResult r = spawn(argv);
        outcome.taxonomy = taxonomyOf(r);
        outcome.exitCode = r.exitCode;
        outcome.termSignal = r.termSignal;
        outcome.attempts = attempt;
        outcome.wallMs = r.wallMs;
        outcome.stderrTail = tailOf(r.err, 400);
        outcome.result = trimString(r.out);
        if (outcome.taxonomy == "clean") {
            if (attempt > 1)
                outcome.taxonomy = "flaky-then-passed";
            return outcome;
        }
        if (!retryable(outcome.taxonomy) ||
            attempt > opts.retries || gStopSignal) {
            return outcome;
        }
        // Exponential backoff before the retry, capped so a stop
        // signal is seen within one capped sleep.
        uint64_t napMs =
            cappedDoubling(opts.backoffMs, attempt, kMaxBackoffMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(napMs));
    }
}

/**
 * Delta-debug a failing gen/workload job down to a minimal
 * reproducer: first ddmin over the fault-plan list, then over the
 * generated-program indices, holding the failure taxonomy fixed.
 * The result is logged as a "shrink" manifest record whose "cmd" is
 * a standalone worker invocation.
 */
void
Coordinator::shrinkFailure(const Job &job, const JobOutcome &outcome)
{
    if (job.kind == "bench")
        return;

    const std::string want = outcome.taxonomy;
    verify::ShrinkStats stats;

    // Rebuild a probe argv from scratch with the given plan subset
    // and program subset (offsets into the job's gen window).
    auto probeArgv = [&](const std::vector<std::string> &plans,
                         const std::vector<size_t> &picks) {
        std::vector<std::string> argv;
        for (const std::string &arg : job.argv) {
            if (startsWith(arg, "--plans="))
                argv.push_back("--plans=" + joinStrings(plans, ","));
            else
                argv.push_back(arg);
        }
        if (!picks.empty() && job.kind == "gen") {
            std::vector<std::string> offs;
            for (size_t p : picks)
                offs.push_back(std::to_string(p));
            argv.push_back("--gen-pick=" + joinStrings(offs, ","));
        }
        argv.push_back("--attempt=1");
        return argv;
    };
    auto probe = [&](const std::vector<std::string> &plans,
                     const std::vector<size_t> &picks) {
        return taxonomyOf(spawn(probeArgv(plans, picks))) == want;
    };

    // Phase 1: minimal failing plan subset.
    std::vector<size_t> planIdx = verify::ddmin(
        job.plans.size(),
        [&](const std::vector<size_t> &keep) {
            std::vector<std::string> plans;
            for (size_t k : keep)
                plans.push_back(job.plans[k]);
            return !plans.empty() && probe(plans, {});
        },
        &stats);
    std::vector<std::string> minPlans;
    for (size_t k : planIdx)
        minPlans.push_back(job.plans[k]);

    // Phase 2 (gen jobs): minimal failing program subset.
    std::vector<size_t> minPicks;
    if (job.kind == "gen" && job.genCount > 1) {
        minPicks = verify::ddmin(
            static_cast<size_t>(job.genCount),
            [&](const std::vector<size_t> &keep) {
                return !keep.empty() && probe(minPlans, keep);
            },
            &stats);
    }

    // Fold a single surviving program into --gen-skip so the
    // reproducer reads as one program, one (or two) plan steps.
    std::vector<std::string> repro;
    if (job.kind == "gen" && minPicks.size() == 1) {
        for (const std::string &arg : job.argv) {
            if (startsWith(arg, "--plans="))
                repro.push_back("--plans=" +
                                joinStrings(minPlans, ","));
            else if (startsWith(arg, "--gen-skip="))
                repro.push_back(
                    "--gen-skip=" +
                    std::to_string(job.genSkip + minPicks[0]));
            else if (startsWith(arg, "--gen-count="))
                repro.push_back("--gen-count=1");
            else
                repro.push_back(arg);
        }
    } else {
        repro = probeArgv(minPlans, minPicks);
        repro.pop_back(); // drop the trailing --attempt=1
    }

    JsonWriter w(0);
    w.beginObject();
    w.field("type", "shrink");
    w.field("job", job.id);
    w.field("taxonomy", want);
    w.key("plans").beginArray();
    for (const std::string &p : minPlans)
        w.value(p);
    w.endArray();
    if (!minPicks.empty()) {
        w.key("programs").beginArray();
        for (size_t p : minPicks)
            w.value(static_cast<uint64_t>(job.genSkip + p));
        w.endArray();
    }
    w.field("probes", stats.probes);
    w.field("steps", static_cast<uint64_t>(minPlans.size()));
    w.field("cmd", joinArgv(repro));
    w.endObject();
    manifest.writeLine(w.str());

    std::lock_guard<std::mutex> lock(statsMutex);
    ++shrunkJobs;
}

/** The worker result-line fields summed into registry counters. */
const char *const kResultFields[] = {"programs", "runs", "faults_fired",
                                     "events_checked", "timing_moved"};

/**
 * Count one settled job into the registry: its taxonomy bucket and
 * the fields of its worker @p result line (empty when it has none).
 */
void
countJob(const std::string &taxonomy, const std::string &result)
{
    obs::Registry &registry = obs::Registry::process();
    registry
        .counter("elag_campaign_jobs_total",
                 "Campaign jobs settled, by crash-taxonomy bucket.",
                 {{"taxonomy", taxonomy}})
        .inc();
    for (const char *field : kResultFields) {
        uint64_t n = 0;
        if (!result.empty() && jsonExtractUint(result, field, n))
            registry
                .counter(formatString("elag_campaign_%s_total", field),
                         "Soak coverage summed over passing campaign "
                         "jobs.")
                .inc(n);
    }
}

void
Coordinator::recordJob(const Job &job, const JobOutcome &outcome)
{
    // A passing worker's result line carries what its soak covered;
    // a missing or malformed line is left out of the manifest.
    bool hasResult = job.kind != "bench" &&
                     !isFailureTaxonomy(outcome.taxonomy) &&
                     startsWith(outcome.result, "{") &&
                     jsonValid(outcome.result);
    countJob(outcome.taxonomy, hasResult ? outcome.result : "");

    JsonWriter w(0);
    w.beginObject();
    w.field("type", "job");
    w.field("id", job.id);
    w.field("kind", job.kind);
    w.field("taxonomy", outcome.taxonomy);
    w.field("exit", static_cast<int64_t>(outcome.exitCode));
    w.field("signal", static_cast<int64_t>(outcome.termSignal));
    w.field("attempts", outcome.attempts);
    w.field("wall_ms", outcome.wallMs);
    if (!job.ckptPath.empty())
        w.field("ckpt", job.ckptPath);
    if (hasResult)
        w.key("result").rawValue(outcome.result);
    w.field("cmd", joinArgv(job.argv));
    if (!outcome.stderrTail.empty())
        w.field("stderr_tail", outcome.stderrTail);
    w.endObject();
    manifest.writeLine(w.str());

    std::lock_guard<std::mutex> lock(statsMutex);
    if (outcome.taxonomy == "clean")
        ++cleanJobs;
    else if (outcome.taxonomy == "flaky-then-passed")
        ++flakyJobs;
    else
        ++failedJobs;
}

void
Coordinator::workerLoop()
{
    for (;;) {
        if (gStopSignal)
            return;
        size_t i = nextJob.fetch_add(1);
        if (i >= pending.size())
            return;
        const Job &job = pending[i];
        obs::Span span("job", "campaign");
        span.arg("id", job.id);
        span.arg("kind", job.kind);
        JobOutcome outcome = runWithRetries(job);
        span.arg("taxonomy", outcome.taxonomy);
        span.arg("attempts", std::to_string(outcome.attempts));
        span.end();
        recordJob(job, outcome);
        if (isFailureTaxonomy(outcome.taxonomy) && opts.shrink &&
            !gStopSignal) {
            shrinkFailure(job, outcome);
        }
    }
}

int
Coordinator::run()
{
    std::vector<Job> all = buildMatrix();
    if (all.empty()) {
        std::fprintf(stderr,
                     "elag_campaign: empty job matrix (use "
                     "--gen-programs, --workloads, --scenarios, or "
                     "--bench)\n");
        return 2;
    }

    if (opts.dryRun) {
        for (const Job &job : all)
            std::printf("%s\n", job.id.c_str());
        return 0;
    }

    // Resume: any job id already recorded in the manifest is final
    // (job lines are only appended after retries settle), so skip it
    // and count it again. Job lines are flushed as jobs settle, so
    // counting them, not the closing metrics line, also covers an
    // invocation that was killed before writing that line. A job line
    // cut off mid-record is not valid JSON, so the extractors skip it
    // and that job runs again.
    std::set<std::string> done;
    if (opts.resume) {
        std::ifstream in(opts.manifestPath);
        std::string line;
        while (std::getline(in, line)) {
            std::string type, id, taxonomy, result;
            if (jsonExtractString(line, "type", type) && type == "job" &&
                jsonExtractString(line, "id", id) &&
                done.insert(id).second &&
                jsonExtractString(line, "taxonomy", taxonomy)) {
                jsonExtractRaw(line, "result", result);
                countJob(taxonomy, result);
            }
        }
    }

    for (Job &job : all) {
        if (!done.count(job.id))
            pending.push_back(std::move(job));
    }
    size_t skipped = all.size() - pending.size();
    bool truncated = false;
    if (opts.maxJobs && pending.size() > opts.maxJobs) {
        pending.resize(opts.maxJobs);
        truncated = true;
    }

    if (!manifest.open(opts.manifestPath)) {
        std::fprintf(stderr, "elag_campaign: cannot open '%s'\n",
                     opts.manifestPath.c_str());
        return 1;
    }
    {
        JsonWriter w(0);
        w.beginObject();
        w.field("type", "campaign");
        w.field("version", static_cast<uint64_t>(1));
        w.field("resumed", opts.resume);
        w.field("total_jobs", static_cast<uint64_t>(all.size()));
        w.field("skipped_completed", static_cast<uint64_t>(skipped));
        w.field("scheduled", static_cast<uint64_t>(pending.size()));
        w.field("workers", opts.workers);
        w.endObject();
        manifest.writeLine(w.str());
    }

    installStopHandlers();
    std::fprintf(stderr,
                 "elag_campaign: %zu jobs scheduled (%zu already "
                 "complete), %llu workers\n",
                 pending.size(), skipped,
                 static_cast<unsigned long long>(opts.workers));

    std::vector<std::thread> pool;
    size_t nWorkers = std::max<uint64_t>(1, opts.workers);
    for (size_t t = 0; t < nWorkers; ++t)
        pool.emplace_back([this] { workerLoop(); });
    for (std::thread &t : pool)
        t.join();

    size_t processed = cleanJobs + flakyJobs + failedJobs;
    bool interrupted = gStopSignal != 0;
    {
        JsonWriter w(0);
        w.beginObject();
        w.field("type", "summary");
        w.field("processed", static_cast<uint64_t>(processed));
        w.field("clean", cleanJobs);
        w.field("flaky_then_passed", flakyJobs);
        w.field("failed", failedJobs);
        w.field("shrunk", shrunkJobs);
        w.field("interrupted", interrupted);
        if (interrupted)
            w.field("signal", static_cast<int64_t>(gStopSignal));
        w.endObject();
        manifest.writeLine(w.str());
    }
    {
        // Counter snapshot. After --resume it covers every job in
        // the manifest, since the scan above recounted earlier ones.
        JsonWriter w(0);
        w.beginObject();
        w.field("type", "metrics");
        w.key("counters");
        obs::Registry::process().writeCountersJson(w);
        w.endObject();
        manifest.writeLine(w.str());
    }
    obs::SpanTracer::process().flush();
    std::fprintf(stderr,
                 "elag_campaign: %zu processed, %llu clean, %llu "
                 "flaky-then-passed, %llu failed (%llu shrunk)%s\n",
                 processed,
                 static_cast<unsigned long long>(cleanJobs),
                 static_cast<unsigned long long>(flakyJobs),
                 static_cast<unsigned long long>(failedJobs),
                 static_cast<unsigned long long>(shrunkJobs),
                 interrupted ? " [interrupted]" : "");

    if (interrupted)
        return 128 + static_cast<int>(gStopSignal);
    if (truncated || processed < pending.size())
        return 3;
    return failedJobs ? 1 : 0;
}

// =====================================================================
// Argument parsing (strict: malformed numerics are usage errors).
// =====================================================================

void
usage()
{
    std::fprintf(
        stderr,
        "usage: elag_campaign [coordinator options]\n"
        "       elag_campaign --worker [worker options]\n"
        "\n"
        "coordinator:\n"
        "  --manifest=FILE     JSONL manifest (default "
        "campaign-manifest.jsonl)\n"
        "  --resume            skip jobs already completed in the "
        "manifest\n"
        "  --jobs=N            worker pool size (default 2)\n"
        "  --retries=N         retries for transient failures "
        "(default 1)\n"
        "  --backoff-ms=N      base retry backoff (default 100, "
        "doubles, capped at 5 s)\n"
        "  --timeout-ms=N      per-job wall-clock kill (default "
        "120000)\n"
        "  --cpu-limit=SEC     per-job RLIMIT_CPU\n"
        "  --mem-limit-mb=N    per-job RLIMIT_AS\n"
        "  --gen-programs=N    generated soak programs\n"
        "  --gen-chunk=N       programs per job (default 5)\n"
        "  --workloads=a,b     named workload jobs\n"
        "  --scenarios=a,b     synthetic scenario jobs: spec files "
        "or\n"
        "                      directories of *.spec.json "
        "(elag_workgen --matrix)\n"
        "  --machines=a,b      baseline|proposed (default proposed)\n"
        "  --plans=SPEC        comma-separated groups; join plans "
        "with '+';\n"
        "                      'graceful' = every graceful plan as "
        "one group\n"
        "  --selection=POLICY  compiler|ev|all-predict|all-early\n"
        "  --seed=N --max-inst=N --max-cycles=N\n"
        "  --bench=p1,p2       bench binaries run as batch jobs\n"
        "  --bench-out=DIR     bench artifact dir (default '.')\n"
        "  --checkpoint-dir=DIR  durable per-job worker checkpoints;\n"
        "                      killed jobs resume mid-job on retry or "
        "--resume\n"
        "  --max-jobs=N        stop after N jobs (exit 3)\n"
        "  --no-shrink         skip failure shrinking\n"
        "  --self=PATH         worker binary override\n"
        "  --trace-out=FILE    per-job span trace (Chrome JSON)\n"
        "  --dry-run           print the job matrix and exit\n"
        "\n"
        "worker:\n"
        "  --workload=gen|NAME --gen-seed=N --gen-skip=N "
        "--gen-count=N\n"
        "  --gen-pick=i,j --machine=M --selection=POLICY "
        "--plans=p1,p2\n"
        "  --scenario=FILE     run one scenario-spec file\n"
        "  --inject-seed=N --max-inst=N --max-cycles=N "
        "--max-wall-ms=N --attempt=N\n"
        "  --checkpoint=FILE   durable progress checkpoint\n");
}

/** Parse `--opt=N` into @p out; report + exit 2 on malformed input. */
bool
numericArg(const std::string &arg, const char *prefix, uint64_t &out,
           bool &bad)
{
    if (!startsWith(arg, prefix))
        return false;
    if (!parseNumericFlag("elag_campaign", arg, prefix, out))
        bad = true;
    return true;
}

int
workerMain(int argc, char **argv)
{
    WorkerOptions opts;
    bool bad = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--worker") {
            // mode flag, already consumed
        } else if (startsWith(arg, "--workload=")) {
            opts.workload = value("--workload=");
        } else if (numericArg(arg, "--gen-seed=", opts.genSeed, bad) ||
                   numericArg(arg, "--gen-skip=", opts.genSkip, bad) ||
                   numericArg(arg, "--gen-count=", opts.genCount,
                              bad) ||
                   numericArg(arg, "--inject-seed=", opts.injectSeed,
                              bad) ||
                   numericArg(arg, "--max-inst=", opts.maxInst, bad) ||
                   numericArg(arg, "--max-cycles=", opts.maxCycles,
                              bad) ||
                   numericArg(arg, "--max-wall-ms=", opts.maxWallMs,
                              bad) ||
                   numericArg(arg, "--attempt=", opts.attempt, bad)) {
            // parsed (or flagged) above
        } else if (startsWith(arg, "--gen-pick=")) {
            for (const std::string &tok :
                 splitString(value("--gen-pick="), ',')) {
                uint64_t pick = 0;
                if (!parseUint64(tok, pick)) {
                    std::fprintf(
                        stderr,
                        "elag_campaign: invalid --gen-pick entry "
                        "'%s'\n",
                        tok.c_str());
                    bad = true;
                    break;
                }
                opts.genPick.push_back(pick);
            }
        } else if (startsWith(arg, "--machine=")) {
            opts.machine = value("--machine=");
        } else if (startsWith(arg, "--selection=")) {
            opts.selection = value("--selection=");
        } else if (startsWith(arg, "--plans=")) {
            opts.plans = splitString(value("--plans="), ',');
        } else if (startsWith(arg, "--scenario=")) {
            opts.scenarioPath = value("--scenario=");
        } else if (startsWith(arg, "--checkpoint=")) {
            opts.checkpointPath = value("--checkpoint=");
        } else {
            std::fprintf(stderr, "unknown worker option '%s'\n",
                         arg.c_str());
            bad = true;
        }
        if (bad) {
            usage();
            return 2;
        }
    }
    for (const std::string &plan : opts.plans) {
        if (!knownPlan(plan)) {
            std::fprintf(stderr, "unknown fault plan '%s'\n",
                         plan.c_str());
            return 2;
        }
    }
    try {
        return runWorker(opts);
    } catch (const sim::SimTimeoutError &e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 75;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "worker: invariant violation: %s\n",
                     e.what());
        return 70;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 1;
    }
}

int
coordinatorMain(int argc, char **argv)
{
    CampaignOptions opts;
    bool bad = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (startsWith(arg, "--manifest=")) {
            opts.manifestPath = value("--manifest=");
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--dry-run") {
            opts.dryRun = true;
        } else if (numericArg(arg, "--jobs=", opts.workers, bad) ||
                   numericArg(arg, "--retries=", opts.retries, bad) ||
                   numericArg(arg, "--backoff-ms=", opts.backoffMs,
                              bad) ||
                   numericArg(arg, "--timeout-ms=", opts.timeoutMs,
                              bad) ||
                   numericArg(arg, "--cpu-limit=", opts.cpuLimitSec,
                              bad) ||
                   numericArg(arg, "--mem-limit-mb=", opts.memLimitMb,
                              bad) ||
                   numericArg(arg, "--gen-programs=", opts.genPrograms,
                              bad) ||
                   numericArg(arg, "--gen-chunk=", opts.genChunk,
                              bad) ||
                   numericArg(arg, "--seed=", opts.seed, bad) ||
                   numericArg(arg, "--max-inst=", opts.maxInst, bad) ||
                   numericArg(arg, "--max-cycles=", opts.maxCycles,
                              bad) ||
                   numericArg(arg, "--max-jobs=", opts.maxJobs, bad)) {
            // parsed (or flagged) above
        } else if (startsWith(arg, "--workloads=")) {
            opts.workloadNames = splitString(value("--workloads="), ',');
        } else if (startsWith(arg, "--scenarios=")) {
            // Entries are spec files or directories to scan; expanded
            // and validated below once all flags are parsed.
            for (const std::string &entry :
                 splitString(value("--scenarios="), ','))
                opts.scenarioFiles.push_back(entry);
        } else if (startsWith(arg, "--machines=")) {
            opts.machines = splitString(value("--machines="), ',');
        } else if (startsWith(arg, "--plans=")) {
            for (const std::string &tok :
                 splitString(value("--plans="), ',')) {
                if (tok == "graceful") {
                    opts.planGroups.push_back(
                        verify::gracefulPlanNames());
                } else {
                    opts.planGroups.push_back(splitString(tok, '+'));
                }
            }
        } else if (startsWith(arg, "--selection=")) {
            opts.selection = value("--selection=");
        } else if (startsWith(arg, "--bench=")) {
            opts.benches = splitString(value("--bench="), ',');
        } else if (startsWith(arg, "--bench-out=")) {
            opts.benchOutDir = value("--bench-out=");
        } else if (startsWith(arg, "--checkpoint-dir=")) {
            opts.checkpointDir = value("--checkpoint-dir=");
        } else if (startsWith(arg, "--self=")) {
            opts.self = value("--self=");
        } else if (startsWith(arg, "--trace-out=")) {
            opts.traceOut = value("--trace-out=");
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            bad = true;
        }
        if (bad) {
            usage();
            return 2;
        }
    }
    if (opts.genChunk == 0) {
        std::fprintf(stderr, "elag_campaign: --gen-chunk must be > 0\n");
        return 2;
    }
    if (opts.planGroups.empty())
        opts.planGroups.push_back(verify::gracefulPlanNames());
    for (const auto &group : opts.planGroups) {
        for (const std::string &plan : group) {
            if (!knownPlan(plan)) {
                std::fprintf(stderr, "unknown fault plan '%s'\n",
                             plan.c_str());
                return 2;
            }
        }
    }
    for (const std::string &machine : opts.machines) {
        if (machine != "baseline" && machine != "proposed") {
            std::fprintf(stderr, "unknown machine '%s'\n",
                         machine.c_str());
            return 2;
        }
    }
    for (const std::string &name : opts.workloadNames) {
        if (!workloads::findWorkload(name)) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
    }
    // Expand --scenarios entries (directories scan for *.spec.json,
    // sorted for a deterministic matrix) and fail fast on any spec
    // that does not parse, before a single worker is spawned.
    {
        std::vector<std::string> files;
        for (const std::string &entry : opts.scenarioFiles) {
            struct stat st;
            if (stat(entry.c_str(), &st) != 0) {
                std::fprintf(stderr, "cannot stat scenario '%s'\n",
                             entry.c_str());
                return 2;
            }
            if (!S_ISDIR(st.st_mode)) {
                files.push_back(entry);
                continue;
            }
            DIR *dir = opendir(entry.c_str());
            if (!dir) {
                std::fprintf(stderr,
                             "cannot open scenario dir '%s'\n",
                             entry.c_str());
                return 2;
            }
            std::vector<std::string> found;
            while (struct dirent *de = readdir(dir)) {
                std::string name = de->d_name;
                if (endsWith(name, ".spec.json"))
                    found.push_back(entry + "/" + name);
            }
            closedir(dir);
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        }
        for (const std::string &path : files) {
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "cannot open scenario '%s'\n",
                             path.c_str());
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            workloads::synthetic::ScenarioSpec spec;
            std::string error;
            if (!workloads::synthetic::parseScenarioSpec(
                    text.str(), spec, error)) {
                std::fprintf(stderr, "bad scenario '%s': %s\n",
                             path.c_str(), error.c_str());
                return 2;
            }
        }
        opts.scenarioFiles = std::move(files);
    }
    if (opts.benchOutDir.empty()) {
        size_t slash = opts.manifestPath.find_last_of('/');
        opts.benchOutDir = slash == std::string::npos
                               ? "."
                               : opts.manifestPath.substr(0, slash);
    }
    if (!opts.benches.empty() &&
        mkdir(opts.benchOutDir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "cannot create bench-out dir '%s': %s\n",
                     opts.benchOutDir.c_str(), std::strerror(errno));
        return 1;
    }
    if (!opts.checkpointDir.empty() &&
        mkdir(opts.checkpointDir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
        std::fprintf(stderr,
                     "cannot create checkpoint dir '%s': %s\n",
                     opts.checkpointDir.c_str(), std::strerror(errno));
        return 1;
    }
    if (opts.self.empty()) {
        // /proc/self/exe survives PATH-relative invocation and cwd
        // changes; fall back to argv[0] off Linux.
        char buf[4096];
        ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n > 0) {
            buf[n] = '\0';
            opts.self = buf;
        } else {
            opts.self = argv[0];
        }
    }
    obs::SpanTracer::process().setProcessLabel("elag_campaign");
    if (!opts.traceOut.empty())
        obs::SpanTracer::process().enable(opts.traceOut);
    obs::SpanTracer::process().applyEnvironment();
    return Coordinator(opts).run();
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0)
            return workerMain(argc, argv);
        if (std::strcmp(argv[i], "--help") == 0) {
            usage();
            return 0;
        }
    }
    return coordinatorMain(argc, argv);
}
