/**
 * @file
 * Campaign-runner tests: the sandboxed subprocess layer (output
 * capture, exit/signal classification, wall-clock timeout kill,
 * capture truncation, rlimit plumbing, a spawned child's default
 * SIGTERM), the delta-debugging shrinker (synthetic oracles plus a
 * real deliberate-bug fault-plan list), and the elag_campaign binary
 * end-to-end — crash/hang/violation taxonomy, the watchdog, worker
 * results and their metric totals,
 * manifest and worker-checkpoint resume, flaky-then-passed retries,
 * and shrunk reproducers that still fail standalone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "pipeline/pipeline.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/subprocess.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"
#include "verify/shrinker.hh"

using namespace elag;
using verify::ddmin;
using verify::ShrinkStats;

// ---------------------------------------------------------------
// Subprocess sandbox.
// ---------------------------------------------------------------

namespace {

SubprocessResult
runShell(const std::string &script, const SubprocessLimits &limits = {})
{
    return runSubprocess({"/bin/sh", "-c", script}, limits);
}

} // namespace

TEST(Subprocess, CapturesStdoutAndStderrSeparately)
{
    auto r = runShell("echo captured-out; echo captured-err 1>&2");
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_EQ(r.out, "captured-out\n");
    EXPECT_EQ(r.err, "captured-err\n");
    EXPECT_FALSE(r.outTruncated);
}

TEST(Subprocess, ReportsExitCode)
{
    auto r = runShell("exit 7");
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 7);
}

TEST(Subprocess, ClassifiesSignalDeath)
{
    auto r = runShell("kill -TERM $$");
    ASSERT_EQ(r.status, SubprocessStatus::Signaled);
    EXPECT_EQ(r.termSignal, SIGTERM);
    EXPECT_FALSE(r.oomSuspected());
}

TEST(Subprocess, SpawnedChildStartsWithDefaultSigterm)
{
    // exec keeps an ignored disposition. A drained elagd supervisor
    // ignores SIGTERM yet stops the workers it spawns with it.
    struct sigaction ignore = {}, saved = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ASSERT_EQ(::sigaction(SIGTERM, &ignore, &saved), 0);
    std::string error;
    pid_t pid = spawnSubprocess({"/bin/sh", "-c", "kill -TERM $$; exit 3"},
                                SpawnLimits{}, error);
    ::sigaction(SIGTERM, &saved, nullptr);
    ASSERT_GT(pid, 0) << error;
    SpawnedStatus status = waitSpawned(pid, 10'000);
    ASSERT_FALSE(status.running);
    EXPECT_EQ(status.termSignal, SIGTERM) << "exit " << status.exitCode;
}

TEST(Subprocess, UninvitedSigkillReadsAsSuspectedOom)
{
    auto r = runShell("kill -KILL $$");
    ASSERT_EQ(r.status, SubprocessStatus::Signaled);
    EXPECT_EQ(r.termSignal, SIGKILL);
    EXPECT_TRUE(r.oomSuspected());
}

TEST(Subprocess, WallTimeoutKillsHungChild)
{
    SubprocessLimits limits;
    limits.wallTimeoutMs = 300;
    auto r = runShell("sleep 30", limits);
    EXPECT_EQ(r.status, SubprocessStatus::TimedOut);
    EXPECT_LT(r.wallMs, 5000u) << "kill must not wait for the sleep";
}

TEST(Subprocess, TimeoutKillsChildThatIgnoresPipes)
{
    // The child closes stdout/stderr and keeps running: EOF arrives
    // immediately, but the reaping path must still enforce the
    // deadline rather than block in waitpid forever.
    SubprocessLimits limits;
    limits.wallTimeoutMs = 300;
    auto r = runShell("exec >/dev/null 2>&1; sleep 30", limits);
    EXPECT_EQ(r.status, SubprocessStatus::TimedOut);
    EXPECT_LT(r.wallMs, 5000u);
}

TEST(Subprocess, TruncatesOversizedCaptureButDrains)
{
    SubprocessLimits limits;
    limits.maxCaptureBytes = 1024;
    // 200k of output: far past the cap, and past pipe capacity, so a
    // runner that stopped reading at the cap would deadlock.
    auto r = runShell("i=0; while [ $i -lt 5000 ]; do"
                      " echo 0123456789012345678901234567890123456789;"
                      " i=$((i+1)); done",
                      limits);
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(r.outTruncated);
    EXPECT_LE(r.out.size(), 1024u);
}

TEST(Subprocess, ExecFailureExitsWithShellConvention127)
{
    auto r = runSubprocess({"/no/such/binary/anywhere"});
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 127);
}

TEST(Subprocess, EmptyArgvFailsToStart)
{
    auto r = runSubprocess({});
    EXPECT_EQ(r.status, SubprocessStatus::StartFailed);
    EXPECT_FALSE(r.error.empty());
}

TEST(Subprocess, DescribeCoversEveryStatus)
{
    EXPECT_NE(describeSubprocessResult(runShell("exit 3")).find("3"),
              std::string::npos);
    SubprocessLimits limits;
    limits.wallTimeoutMs = 200;
    EXPECT_NE(describeSubprocessResult(runShell("sleep 30", limits))
                  .find("timeout"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Shrinker: synthetic oracles.
// ---------------------------------------------------------------

TEST(Shrinker, DdminFindsSingleCulprit)
{
    ShrinkStats stats;
    auto minimal = ddmin(16, [](const std::vector<size_t> &keep) {
        return std::find(keep.begin(), keep.end(), 11u) != keep.end();
    }, &stats);
    ASSERT_EQ(minimal.size(), 1u);
    EXPECT_EQ(minimal[0], 11u);
    EXPECT_GT(stats.probes, 0u);
}

TEST(Shrinker, DdminFindsInteractingPair)
{
    auto needs = [](const std::vector<size_t> &keep, size_t x) {
        return std::find(keep.begin(), keep.end(), x) != keep.end();
    };
    auto minimal = ddmin(12, [&](const std::vector<size_t> &keep) {
        return needs(keep, 2) && needs(keep, 9);
    });
    ASSERT_EQ(minimal.size(), 2u);
    EXPECT_EQ(minimal[0], 2u);
    EXPECT_EQ(minimal[1], 9u);
}

TEST(Shrinker, DdminKeepsFullSetWhenFailureGone)
{
    // A flaky failure that no longer reproduces must not shrink to a
    // misleading subset; ddmin returns the full set untouched.
    auto minimal =
        ddmin(8, [](const std::vector<size_t> &) { return false; });
    EXPECT_EQ(minimal.size(), 8u);
}

TEST(Shrinker, DdminResultIsOneMinimal)
{
    // Failure needs >= 3 elements of {0..5}: any minimal answer has
    // exactly 3, and removing any one element makes it pass.
    auto oracle = [](const std::vector<size_t> &keep) {
        size_t hits = 0;
        for (size_t k : keep)
            if (k < 6)
                ++hits;
        return hits >= 3;
    };
    auto minimal = ddmin(10, oracle);
    EXPECT_EQ(minimal.size(), 3u);
    for (size_t drop = 0; drop < minimal.size(); ++drop) {
        std::vector<size_t> fewer;
        for (size_t i = 0; i < minimal.size(); ++i)
            if (i != drop)
                fewer.push_back(minimal[i]);
        EXPECT_FALSE(oracle(fewer));
    }
}

TEST(Shrinker, DdminCachesRepeatedSubsets)
{
    ShrinkStats stats;
    ddmin(8, [](const std::vector<size_t> &keep) {
        return std::find(keep.begin(), keep.end(), 0u) != keep.end();
    }, &stats);
    // Not asserting an exact probe count (algorithm detail), only
    // that the memoization layer is live.
    EXPECT_GT(stats.probes, 0u);
}

// ---------------------------------------------------------------
// Shrinker: real fault-plan list with a deliberate bug inside.
// ---------------------------------------------------------------

namespace {

/**
 * In-process job oracle: run the strided kernel under each plan of
 * the subset (AllPredict, forced verification failure — the same
 * forcing the campaign worker applies to bug plans) and report
 * whether the invariant checker fired.
 */
bool
anyPlanViolates(const std::vector<std::string> &plans)
{
    static const char *source =
        "int A[256];\n"
        "int main() {\n"
        "    int sum = 0;\n"
        "    for (int i = 0; i < 256; i++) A[i] = i;\n"
        "    for (int i = 0; i < 256; i++) sum += A[i];\n"
        "    print(sum);\n"
        "    return 0;\n"
        "}\n";
    auto prog = sim::compile(source);
    for (const std::string &name : plans) {
        verify::FaultPlan plan = verify::planByName(name);
        pipeline::MachineConfig cfg =
            pipeline::MachineConfig::proposed();
        if (plan.bypassAddressCheck || plan.bypassInterlockCheck) {
            cfg.selection = pipeline::SelectionPolicy::AllPredict;
            if (plan.bypassAddressCheck)
                plan.verifyFailRate = 1.0;
            if (plan.bypassInterlockCheck)
                plan.forceInterlockRate = 1.0;
        }
        verify::FaultInjector injector(plan, 1);
        cfg.faultInjector = &injector;
        verify::InvariantChecker checker;
        try {
            sim::runTimed(prog, cfg, 10'000'000, {&checker});
        } catch (const PanicError &) {
            return true;
        }
    }
    return false;
}

} // namespace

TEST(Shrinker, DeliberateBugPlanListShrinksToAtMostTwoSteps)
{
    // A realistic failing job: every graceful plan plus one
    // deliberate bug buried in the middle. The shrinker must isolate
    // a <= 2-step reproducer (here: exactly the bug plan).
    std::vector<std::string> plans = verify::gracefulPlanNames();
    plans.insert(plans.begin() + plans.size() / 2, "bug-addr-bypass");
    ASSERT_GE(plans.size(), 5u);

    ShrinkStats stats;
    auto minimal = ddmin(plans.size(),
                         [&](const std::vector<size_t> &keep) {
                             std::vector<std::string> subset;
                             for (size_t k : keep)
                                 subset.push_back(plans[k]);
                             return anyPlanViolates(subset);
                         },
                         &stats);
    ASSERT_LE(minimal.size(), 2u);
    ASSERT_EQ(minimal.size(), 1u);
    EXPECT_EQ(plans[minimal[0]], "bug-addr-bypass");
}

// ---------------------------------------------------------------
// elag_campaign end-to-end.
// ---------------------------------------------------------------

#ifdef ELAG_CAMPAIGN_BIN

namespace {

struct ManifestView
{
    std::vector<std::string> jobLines;
    std::vector<std::string> shrinkLines;
    std::string lastMetrics;

    std::string
    jobLine(const std::string &idFragment) const
    {
        for (const std::string &line : jobLines)
            if (line.find(idFragment) != std::string::npos)
                return line;
        return {};
    }
};

ManifestView
readManifest(const std::string &path)
{
    ManifestView view;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_TRUE(jsonValid(line)) << "manifest line is not JSON: "
                                     << line;
        std::string type;
        if (!jsonExtractString(line, "type", type))
            continue;
        if (type == "job")
            view.jobLines.push_back(line);
        else if (type == "shrink")
            view.shrinkLines.push_back(line);
        else if (type == "metrics")
            view.lastMetrics = line;
    }
    return view;
}

/** The members of a worker's result line. */
const char *const kResultFields[] = {"programs", "runs", "faults_fired",
                                     "events_checked", "timing_moved"};

/** Check that a job line carries a worker result with every field. */
void
expectResult(const std::string &jobLine)
{
    std::string result;
    ASSERT_TRUE(jsonExtractRaw(jobLine, "result", result)) << jobLine;
    for (const char *field : kResultFields) {
        uint64_t n = 0;
        EXPECT_TRUE(jsonExtractUint(result, field, n))
            << field << " missing from " << result;
    }
}

/**
 * The last metrics line's elag_campaign_<field>_total counters must
 * equal the sums of the job lines' result fields.
 */
void
expectTotalsMatchResults(const ManifestView &view)
{
    for (const char *field : kResultFields) {
        uint64_t sum = 0;
        for (const std::string &line : view.jobLines) {
            std::string result;
            uint64_t n = 0;
            if (jsonExtractRaw(line, "result", result) &&
                jsonExtractUint(result, field, n))
                sum += n;
        }
        std::string name =
            std::string("elag_campaign_") + field + "_total";
        uint64_t total = 0;
        EXPECT_TRUE(jsonExtractUint(view.lastMetrics, name, total))
            << name << " missing from " << view.lastMetrics;
        EXPECT_EQ(total, sum) << name;
    }
}

std::string
uniquePath(const std::string &stem)
{
    static int counter = 0;
    return testing::TempDir() + "elag-" + stem + "-" +
           std::to_string(getpid()) + "-" +
           std::to_string(counter++) + ".jsonl";
}

/** Campaign argv shared by the e2e tests: small, fast, isolated. */
std::vector<std::string>
campaignArgv(const std::string &manifest, const std::string &plans,
             uint64_t genPrograms, uint64_t chunk)
{
    return {ELAG_CAMPAIGN_BIN,
            "--manifest=" + manifest,
            "--plans=" + plans,
            "--gen-programs=" + std::to_string(genPrograms),
            "--gen-chunk=" + std::to_string(chunk),
            "--jobs=2",
            "--retries=0",
            "--timeout-ms=4000",
            "--max-inst=2000000"};
}

std::string
taxonomyOfLine(const std::string &line)
{
    std::string taxonomy;
    jsonExtractString(line, "taxonomy", taxonomy);
    return taxonomy;
}

} // namespace

TEST(CampaignE2E, CrashHangViolationAndCleanTaxonomies)
{
    std::string manifest = uniquePath("taxonomy");
    auto argv = campaignArgv(
        manifest, "chaos,test-crash,test-hang,bug-addr-bypass", 1, 1);
    argv.push_back("--no-shrink");
    SubprocessLimits limits;
    limits.wallTimeoutMs = 120'000;
    auto r = runSubprocess(argv, limits);
    ASSERT_EQ(r.status, SubprocessStatus::Exited) << r.err;
    EXPECT_EQ(r.exitCode, 1) << "failures present => exit 1; stderr: "
                             << r.err;

    ManifestView view = readManifest(manifest);
    ASSERT_EQ(view.jobLines.size(), 4u);
    EXPECT_EQ(taxonomyOfLine(view.jobLine("/chaos")), "clean");
    EXPECT_EQ(taxonomyOfLine(view.jobLine("test-crash")), "signal");
    EXPECT_EQ(taxonomyOfLine(view.jobLine("test-hang")), "timeout");
    EXPECT_EQ(taxonomyOfLine(view.jobLine("bug-addr-bypass")),
              "invariant-violation");
    EXPECT_TRUE(view.shrinkLines.empty()) << "--no-shrink was given";

    // Only the clean job reports what it soaked.
    expectResult(view.jobLine("/chaos"));
    std::string result;
    EXPECT_FALSE(jsonExtractRaw(view.jobLine("bug-addr-bypass"), "result",
                                result));
    expectTotalsMatchResults(view);
}

TEST(CampaignE2E, WatchdogTripIsTimeoutExit75)
{
    // An in-process watchdog trip exits 75; a wall-clock kill by the
    // coordinator would record "exit":-1 instead.
    std::string manifest = uniquePath("watchdog");
    auto argv = campaignArgv(manifest, "none", 1, 1);
    argv.push_back("--max-cycles=1000");
    argv.push_back("--no-shrink");
    auto r = runSubprocess(argv);
    ASSERT_EQ(r.status, SubprocessStatus::Exited) << r.err;
    EXPECT_EQ(r.exitCode, 1) << r.err;

    ManifestView view = readManifest(manifest);
    ASSERT_EQ(view.jobLines.size(), 1u);
    const std::string &line = view.jobLines[0];
    EXPECT_EQ(taxonomyOfLine(line), "timeout");
    EXPECT_NE(line.find("\"exit\":75"), std::string::npos) << line;
    EXPECT_NE(line.find("simulation passed cycle 1000"),
              std::string::npos)
        << line;
}

TEST(CampaignE2E, ResumeSkipsCompletedJobsAndFinishes)
{
    // The second pass drops the first invocation's summary and metrics
    // lines, as a coordinator killed by SIGKILL or the OOM killer
    // leaves its manifest: only job lines are flushed as jobs settle.
    for (bool killed : {false, true}) {
        SCOPED_TRACE(killed ? "first invocation killed"
                            : "first invocation truncated");
        std::string manifest = uniquePath("resume");
        // 4 clean jobs; first invocation is allowed to run only 2.
        auto argv = campaignArgv(manifest, "tag-alias", 4, 1);
        argv.push_back("--max-jobs=2");
        auto first = runSubprocess(argv);
        ASSERT_EQ(first.status, SubprocessStatus::Exited) << first.err;
        EXPECT_EQ(first.exitCode, 3) << "truncated campaign => exit 3";
        EXPECT_EQ(readManifest(manifest).jobLines.size(), 2u);
        if (killed) {
            std::vector<std::string> kept;
            std::ifstream in(manifest);
            std::string line, type;
            while (std::getline(in, line)) {
                if (jsonExtractString(line, "type", type) &&
                    type != "summary" && type != "metrics")
                    kept.push_back(line);
            }
            in.close();
            std::ofstream out(manifest, std::ios::trunc);
            for (const std::string &k : kept)
                out << k << '\n';
        }

        // Resume: must skip the two finished jobs and finish green.
        auto argv2 = campaignArgv(manifest, "tag-alias", 4, 1);
        argv2.push_back("--resume");
        auto second = runSubprocess(argv2);
        ASSERT_EQ(second.status, SubprocessStatus::Exited) << second.err;
        EXPECT_EQ(second.exitCode, 0) << second.err;

        ManifestView view = readManifest(manifest);
        EXPECT_EQ(view.jobLines.size(), 4u)
            << "every job exactly once across both invocations";
        std::set<std::string> ids;
        for (const std::string &line : view.jobLines) {
            std::string id;
            ASSERT_TRUE(jsonExtractString(line, "id", id));
            EXPECT_TRUE(ids.insert(id).second)
                << "job " << id << " ran twice despite --resume";
        }

        // The totals cover both invocations: --resume recounts the
        // first one's job lines before adding its own jobs.
        for (const std::string &line : view.jobLines)
            expectResult(line);
        expectTotalsMatchResults(view);
        uint64_t programs = 0;
        EXPECT_TRUE(jsonExtractUint(view.lastMetrics,
                                    "elag_campaign_programs_total",
                                    programs));
        EXPECT_EQ(programs, 4u);
        EXPECT_NE(view.lastMetrics.find("\"elag_campaign_jobs_total{"
                                        "taxonomy=\\\"clean\\\"}\":4"),
                  std::string::npos)
            << view.lastMetrics;

        // A third resume has nothing left to do.
        auto third = runSubprocess(argv2);
        ASSERT_EQ(third.status, SubprocessStatus::Exited);
        EXPECT_EQ(third.exitCode, 0);
        EXPECT_EQ(readManifest(manifest).jobLines.size(), 4u);
    }
}

TEST(CampaignE2E, ResumeRerunsAJobLineCutMidRecord)
{
    // A coordinator killed mid-write leaves its last job line cut
    // short. That job never settled on record, so --resume runs it
    // again and its coverage reaches the closing metrics line.
    std::string manifest = uniquePath("torn");
    auto argv = campaignArgv(manifest, "tag-alias", 1, 1);
    auto first = runSubprocess(argv);
    ASSERT_EQ(first.status, SubprocessStatus::Exited) << first.err;
    ASSERT_EQ(first.exitCode, 0) << first.err;
    ManifestView whole = readManifest(manifest);
    ASSERT_EQ(whole.jobLines.size(), 1u);
    uint64_t runs = 0;
    ASSERT_TRUE(jsonExtractUint(whole.lastMetrics,
                                "elag_campaign_runs_total", runs));
    ASSERT_GT(whole.jobLines[0].size(), 100u);
    {
        std::ofstream out(manifest, std::ios::trunc);
        out << whole.jobLines[0].substr(0, 100);
    }

    argv.push_back("--resume");
    auto second = runSubprocess(argv);
    ASSERT_EQ(second.status, SubprocessStatus::Exited) << second.err;
    EXPECT_EQ(second.exitCode, 0) << second.err;

    // Every line but the torn fragment parses; the job ran once more.
    std::ifstream in(manifest);
    std::string line, type, metrics;
    size_t jobs = 0, torn = 0;
    while (std::getline(in, line)) {
        if (!jsonValid(line)) {
            ++torn;
            continue;
        }
        ASSERT_TRUE(jsonExtractString(line, "type", type)) << line;
        jobs += type == "job";
        if (type == "metrics")
            metrics = line;
    }
    EXPECT_EQ(torn, 1u);
    EXPECT_EQ(jobs, 1u);
    uint64_t resumed_runs = 0;
    EXPECT_TRUE(jsonExtractUint(metrics, "elag_campaign_runs_total",
                                resumed_runs))
        << metrics;
    EXPECT_EQ(resumed_runs, runs);
}

TEST(CampaignE2E, WorkerResumesFromItsCheckpoint)
{
    std::string ckpt = uniquePath("worker") + ".ckpt";
    std::vector<std::string> argv = {ELAG_CAMPAIGN_BIN,
                                     "--worker",
                                     "--workload=gen",
                                     "--gen-seed=1",
                                     "--gen-count=4",
                                     "--machine=proposed",
                                     "--plans=chaos,tag-alias",
                                     "--inject-seed=7"};
    auto uninterrupted = runSubprocess(argv);
    ASSERT_EQ(uninterrupted.status, SubprocessStatus::Exited);
    ASSERT_EQ(uninterrupted.exitCode, 0) << uninterrupted.err;
    uint64_t moved = 0;
    ASSERT_TRUE(jsonExtractUint(uninterrupted.out, "timing_moved", moved))
        << uninterrupted.out;
    EXPECT_GT(moved, 0u) << "the plans must move timing somewhere";

    // Program 0 peaks at 9258 cycles and program 1 at 10738 (these
    // plans and seeds), so a 10000-cycle watchdog stops the first
    // attempt after one durable program.
    argv.push_back("--checkpoint=" + ckpt);
    auto limited = argv;
    limited.push_back("--max-cycles=10000");
    auto first = runSubprocess(limited);
    ASSERT_EQ(first.status, SubprocessStatus::Exited);
    ASSERT_EQ(first.exitCode, 75) << first.err;

    auto resumed = runSubprocess(argv);
    ASSERT_EQ(resumed.status, SubprocessStatus::Exited);
    EXPECT_EQ(resumed.exitCode, 0) << resumed.err;
    EXPECT_NE(resumed.err.find("resumed from '" + ckpt +
                               "' at program 1/4"),
              std::string::npos)
        << resumed.err;
    EXPECT_EQ(resumed.out, uninterrupted.out)
        << "a resumed job must report the uninterrupted totals";
    EXPECT_FALSE(std::ifstream(ckpt).good())
        << "a finished worker removes its checkpoint";

    // An unusable checkpoint is reported and ignored.
    std::ofstream(ckpt) << "not a checkpoint";
    auto garbage = runSubprocess(argv);
    ASSERT_EQ(garbage.status, SubprocessStatus::Exited);
    EXPECT_EQ(garbage.exitCode, 0) << garbage.err;
    EXPECT_NE(garbage.err.find("unusable checkpoint '" + ckpt + "'"),
              std::string::npos)
        << garbage.err;
    EXPECT_NE(garbage.err.find("starting clean"), std::string::npos);
    EXPECT_EQ(garbage.out, uninterrupted.out);
}

TEST(CampaignE2E, FlakyJobRetriesThenPasses)
{
    std::string manifest = uniquePath("flaky");
    auto argv = campaignArgv(manifest, "test-flaky", 1, 1);
    // Overwrite the --retries=0 default from campaignArgv.
    for (std::string &arg : argv)
        if (arg == "--retries=0")
            arg = "--retries=2";
    auto r = runSubprocess(argv);
    ASSERT_EQ(r.status, SubprocessStatus::Exited) << r.err;
    EXPECT_EQ(r.exitCode, 0) << "flaky-then-passed is not a failure; "
                             << r.err;

    ManifestView view = readManifest(manifest);
    ASSERT_EQ(view.jobLines.size(), 1u);
    EXPECT_EQ(taxonomyOfLine(view.jobLines[0]), "flaky-then-passed");
    uint64_t attempts = 0;
    EXPECT_TRUE(
        jsonExtractUint(view.jobLines[0], "attempts", attempts));
    EXPECT_EQ(attempts, 2u);
}

TEST(CampaignE2E, ShrunkReproducerStillFailsStandalone)
{
    std::string manifest = uniquePath("shrink");
    // One 3-program job whose plan list buries a deliberate bug among
    // graceful plans: the shrinker must cut it to one plan and one
    // program, and the emitted command must still exit 70.
    auto argv = campaignArgv(
        manifest, "tag-alias+bug-addr-bypass+chaos+port-starve", 3, 3);
    auto r = runSubprocess(argv);
    ASSERT_EQ(r.status, SubprocessStatus::Exited) << r.err;
    EXPECT_EQ(r.exitCode, 1);

    ManifestView view = readManifest(manifest);
    ASSERT_EQ(view.shrinkLines.size(), 1u) << r.err;
    const std::string &shrink = view.shrinkLines[0];
    EXPECT_EQ(taxonomyOfLine(shrink), "invariant-violation");

    uint64_t steps = 99;
    ASSERT_TRUE(jsonExtractUint(shrink, "steps", steps));
    EXPECT_LE(steps, 2u) << "reproducer must be <= 2 plan steps";

    std::string cmd;
    ASSERT_TRUE(jsonExtractString(shrink, "cmd", cmd));
    EXPECT_NE(cmd.find("bug-addr-bypass"), std::string::npos);
    EXPECT_NE(cmd.find("--gen-count=1"), std::string::npos)
        << "single failing program folded into --gen-skip: " << cmd;

    // The reproducer is a standalone worker command line: run it.
    auto repro = runShell(cmd);
    ASSERT_EQ(repro.status, SubprocessStatus::Exited) << repro.err;
    EXPECT_EQ(repro.exitCode, 70)
        << "shrunk command must still trigger the violation; stderr: "
        << repro.err;
}

TEST(CampaignE2E, MalformedNumericOptionIsUsageError)
{
    auto r = runSubprocess({ELAG_CAMPAIGN_BIN, "--gen-programs=2x",
                            "--manifest=" + uniquePath("usage")});
    ASSERT_EQ(r.status, SubprocessStatus::Exited);
    EXPECT_EQ(r.exitCode, 2);
    auto w = runSubprocess({ELAG_CAMPAIGN_BIN, "--worker",
                            "--gen-seed=", "--plans=chaos"});
    ASSERT_EQ(w.status, SubprocessStatus::Exited);
    EXPECT_EQ(w.exitCode, 2);
}

#endif // ELAG_CAMPAIGN_BIN
