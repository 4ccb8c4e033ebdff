/**
 * @file
 * Checkpoint subsystem tests: byte codec round trips and bounds
 * checking, container integrity (torn tail, CRC corruption, version
 * mismatch — each rejected with its typed error), per-component
 * serialize/restore bit-exactness, and the correctness anchor:
 * kill-resume equivalence — a stats run interrupted at every
 * snapshot boundary and restored into fresh objects must produce a
 * byte-identical stats document to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "mem/memory.hh"
#include "sim/ckpt_run.hh"
#include "sim/simulator.hh"
#include "support/stats.hh"
#include "verify/ckpt_diff.hh"
#include "verify/fault_injector.hh"

using namespace elag;
using ckpt::CkptError;
using ckpt::ErrorKind;

namespace {

/** Expect @p fn to throw CkptError of exactly @p kind. */
template <typename F>
void
expectCkptError(ErrorKind kind, F &&fn)
{
    try {
        fn();
        FAIL() << "expected CkptError(" << ckpt::name(kind) << ")";
    } catch (const CkptError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
    }
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** A loop-heavy program exercising all three load classes. */
const char *kProgram = R"(
int a[128];
int b[128];
int main() {
    int sum = 0;
    for (int r = 0; r < 40; r++) {
        for (int i = 0; i < 128; i++) {
            a[i] = i + r;
            sum += a[i] + b[i & 63];
        }
    }
    print(sum);
    return sum & 0xff;
}
)";

} // anonymous namespace

// ---------------------------------------------------------------
// Byte codec.
// ---------------------------------------------------------------

TEST(CkptSerial, ScalarRoundTrip)
{
    ckpt::Writer w;
    w.u8(0xab);
    w.b(true);
    w.b(false);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i32(-12345);
    w.f32(3.5f);
    w.f64(-2.25);
    w.str("hello");
    w.str("");

    ckpt::Reader r(w.data().data(), w.size());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -12345);
    EXPECT_EQ(r.f32(), 3.5f);
    EXPECT_EQ(r.f64(), -2.25);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptSerial, VarintEdgeValues)
{
    const uint64_t values[] = {0,          1,          127,
                               128,        16383,      16384,
                               0xffffffff, 1ull << 62, ~0ull};
    ckpt::Writer w;
    for (uint64_t v : values)
        w.varint(v);
    ckpt::Reader r(w.data().data(), w.size());
    for (uint64_t v : values)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptSerial, ReaderUnderrunThrowsCorrupt)
{
    ckpt::Writer w;
    w.u32(7);
    ckpt::Reader r(w.data().data(), w.size());
    r.u32();
    expectCkptError(ErrorKind::Corrupt, [&] { r.u8(); });
}

TEST(CkptSerial, VarintOverflowThrowsCorrupt)
{
    // Eleven continuation bytes cannot encode a 64-bit value.
    std::string bad(10, '\xff');
    bad.push_back('\x7f');
    ckpt::Reader r(bad.data(), bad.size());
    expectCkptError(ErrorKind::Corrupt, [&] { r.varint(); });
}

TEST(CkptSerial, HistogramRoundTripAndGeometryMismatch)
{
    Histogram h{16, 4};
    for (uint64_t i = 0; i < 200; ++i)
        h.sample(i % 97);
    ckpt::Writer w;
    ckpt::serialize(w, h);

    Histogram same{16, 4};
    ckpt::Reader r(w.data().data(), w.size());
    ckpt::restore(r, same);
    ckpt::Writer w2;
    ckpt::serialize(w2, same);
    EXPECT_EQ(w.data(), w2.data());

    Histogram other{8, 4};
    ckpt::Reader r2(w.data().data(), w.size());
    expectCkptError(ErrorKind::Mismatch,
                    [&] { ckpt::restore(r2, other); });
}

// ---------------------------------------------------------------
// Container integrity.
// ---------------------------------------------------------------

namespace {

std::string
smallContainer()
{
    ckpt::CheckpointWriter cw;
    cw.section("AAAA").u32(1);
    ckpt::Writer &b = cw.section("BBBB");
    b.str("payload");
    b.varint(999);
    return cw.container();
}

} // anonymous namespace

TEST(CkptContainer, SectionRoundTrip)
{
    auto ck = ckpt::CheckpointReader::fromBytes(smallContainer());
    EXPECT_TRUE(ck.has("AAAA"));
    EXPECT_TRUE(ck.has("BBBB"));
    EXPECT_FALSE(ck.has("CCCC"));
    EXPECT_EQ(ck.section("AAAA").u32(), 1u);
    ckpt::Reader b = ck.section("BBBB");
    EXPECT_EQ(b.str(), "payload");
    EXPECT_EQ(b.varint(), 999u);
    expectCkptError(ErrorKind::Corrupt, [&] { ck.section("CCCC"); });
}

TEST(CkptContainer, BadMagicRejectedCorrupt)
{
    std::string bytes = smallContainer();
    bytes[0] = 'X';
    expectCkptError(ErrorKind::Corrupt, [&] {
        ckpt::CheckpointReader::fromBytes(bytes);
    });
}

TEST(CkptContainer, TornTailRejected)
{
    std::string bytes = smallContainer();
    // Any truncation removes the tail marker -> Torn, for every cut
    // point down to just past the header.
    for (size_t cut : {size_t(1), size_t(7), bytes.size() / 2,
                       bytes.size() - 1}) {
        std::string torn = bytes.substr(0, bytes.size() - cut);
        if (torn.size() < 16)
            continue;
        expectCkptError(ErrorKind::Torn, [&] {
            ckpt::CheckpointReader::fromBytes(torn);
        });
    }
}

TEST(CkptContainer, CrcCorruptionRejected)
{
    std::string bytes = smallContainer();
    // Flip one bit in the middle (a section payload byte).
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;
    expectCkptError(ErrorKind::Corrupt, [&] {
        ckpt::CheckpointReader::fromBytes(bad);
    });
}

TEST(CkptContainer, VersionMismatchRejected)
{
    ckpt::CheckpointWriter cw;
    cw.section("AAAA").u32(1);
    cw.setVersionForTesting(ckpt::kFormatVersion + 1);
    expectCkptError(ErrorKind::VersionMismatch, [&] {
        ckpt::CheckpointReader::fromBytes(cw.container());
    });
}

TEST(CkptContainer, TrailingGarbageRejected)
{
    std::string bytes = smallContainer() + "extra";
    expectCkptError(ErrorKind::Torn, [&] {
        ckpt::CheckpointReader::fromBytes(bytes);
    });
}

TEST(CkptContainer, FileRoundTripAtomicWrite)
{
    std::string path = tempPath("ckpt_file_roundtrip.ckpt");
    ckpt::CheckpointWriter cw;
    cw.section("DATA").str("on disk");
    cw.writeFile(path);
    EXPECT_TRUE(ckpt::fileExists(path));

    auto ck = ckpt::CheckpointReader::fromFile(path);
    EXPECT_EQ(ck.section("DATA").str(), "on disk");

    // Overwrite in place: the new content fully replaces the old.
    ckpt::CheckpointWriter cw2;
    cw2.section("DATA").str("second write");
    cw2.writeFile(path);
    auto ck2 = ckpt::CheckpointReader::fromFile(path);
    EXPECT_EQ(ck2.section("DATA").str(), "second write");
    std::remove(path.c_str());

    expectCkptError(ErrorKind::Io, [&] {
        ckpt::CheckpointReader::fromFile(path);
    });
}

// ---------------------------------------------------------------
// Component round trips: serialize -> restore into a fresh object
// -> serialize again must be byte-identical (every field captured).
// ---------------------------------------------------------------

TEST(CkptComponents, MainMemoryRoundTripBitExact)
{
    mem::MainMemory m(1 << 20);
    // Scattered writes: within a page, page-straddling, zero runs,
    // and a write that later returns to zero (page stays allocated).
    for (uint32_t i = 0; i < 4096; i += 4)
        m.writeWord(i, i * 2654435761u);
    m.writeWord(4096 - 2, 0xa5a5a5a5); // straddles a page boundary
    for (uint32_t i = 0; i < 64; i += 4)
        m.writeWord(0x40000 + i, 0); // allocated but all zero
    m.writeWord(0x80000, 1);
    m.writeWord(0x80000, 0); // written then zeroed

    ckpt::Writer w;
    m.serialize(w);

    mem::MainMemory m2(1 << 20);
    ckpt::Reader r(w.data().data(), w.size());
    m2.restore(r);
    EXPECT_TRUE(r.atEnd());

    ckpt::Writer w2;
    m2.serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(m2.readWord(100 * 4), m.readWord(100 * 4));
    EXPECT_EQ(m2.readWord(4096 - 2), m.readWord(4096 - 2));

    // Size mismatch -> Mismatch.
    mem::MainMemory wrong(1 << 19);
    ckpt::Reader r2(w.data().data(), w.size());
    expectCkptError(ErrorKind::Mismatch, [&] { wrong.restore(r2); });
}

TEST(CkptComponents, FaultInjectorResumesIdenticalStream)
{
    verify::FaultInjector a(verify::planByName("chaos"), 1234);
    for (int i = 0; i < 1000; ++i) {
        a.fireTagAlias();
        a.firePortSteal();
        a.latencyJitter();
    }

    ckpt::Writer w;
    a.serialize(w);

    verify::FaultInjector b(verify::planByName("none"), 0);
    ckpt::Reader r(w.data().data(), w.size());
    b.restore(r);

    // Re-serialization is bit-exact...
    ckpt::Writer w2;
    b.serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    // ...and the future fault stream continues identically.
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.fireTagAlias(), b.fireTagAlias());
        EXPECT_EQ(a.fireVerifyFail(), b.fireVerifyFail());
        EXPECT_EQ(a.latencyJitter(), b.latencyJitter());
    }
    EXPECT_EQ(a.counts().total(), b.counts().total());
}

TEST(CkptComponents, ResumableRunRoundTripBitExact)
{
    sim::CompiledProgram prog = sim::compile(kProgram);
    auto machine = pipeline::MachineConfig::proposed();

    // Advance a run mid-flight, snapshot it, restore into a fresh
    // run, and require bit-exact re-serialization — this covers the
    // emulator, memory, caches, BTB, predictor tables, booking ring,
    // and aggregate stats in one pass.
    sim::ResumableTimedRun run(prog, machine, 500'000'000);
    run.step(20'000, {});
    ASSERT_FALSE(run.done());

    ckpt::Writer w;
    run.serialize(w);

    sim::ResumableTimedRun run2(prog, machine, 500'000'000);
    ckpt::Reader r(w.data().data(), w.size());
    run2.restore(r);
    EXPECT_TRUE(r.atEnd());

    ckpt::Writer w2;
    run2.serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(run2.retired(), run.retired());

    // Both continuations must land on identical final results.
    while (!run.done())
        run.step(30'000, {});
    while (!run2.done())
        run2.step(30'000, {});
    sim::TimedResult t1 = run.finish();
    sim::TimedResult t2 = run2.finish();
    EXPECT_EQ(t1.pipe.cycles, t2.pipe.cycles);
    EXPECT_EQ(t1.pipe.instructions, t2.pipe.instructions);
    EXPECT_EQ(t1.emulation.exitValue, t2.emulation.exitValue);
    EXPECT_EQ(t1.emulation.output, t2.emulation.output);

    // An instruction-cap mismatch is caught before any state moves.
    sim::ResumableTimedRun capped(prog, machine, 12345);
    ckpt::Reader r2(w.data().data(), w.size());
    expectCkptError(ErrorKind::Mismatch, [&] { capped.restore(r2); });
}

// ---------------------------------------------------------------
// Kill-resume equivalence (the correctness anchor).
// ---------------------------------------------------------------

TEST(CkptEquivalence, InterruptedRunMatchesUninterruptedByteForByte)
{
    std::string path = tempPath("ckpt_equiv.ckpt");
    verify::CkptDiffResult diff = verify::checkKillResumeEquivalence(
        kProgram, path, 500'000'000, 15'000);
    EXPECT_GT(diff.legs, 0u);
    EXPECT_TRUE(diff.equivalent) << diff.detail;
}

TEST(CkptEquivalence, HoldsAtOddBoundariesAndWithChecker)
{
    std::string path = tempPath("ckpt_equiv_odd.ckpt");
    // An odd boundary lands snapshots at awkward mid-loop points;
    // the checker rides along so its shadow state round-trips too.
    verify::CkptDiffResult diff = verify::checkKillResumeEquivalence(
        kProgram, path, 500'000'000, 7'777, /*with_checker=*/true);
    EXPECT_GT(diff.legs, 0u);
    EXPECT_TRUE(diff.equivalent) << diff.detail;
}

TEST(CkptEquivalence, RunKeyHashHasKnownAnswer)
{
    // hashRunKey names checkpoint files: stable across releases.
    sim::CkptRunKey key;
    key.programHash = 0x0123456789abcdefull;
    key.machineHash = 0xfedcba9876543210ull;
    key.baselineHash = 42;
    key.maxInstructions = 500'000'000;
    key.hasChecker = true;
    key.injectorPlan = "chaos";
    key.injectorSeed = 7;
    EXPECT_EQ(sim::hashRunKey(key), 0x65e32f5f7d55f693ull);
}

TEST(CkptEquivalence, ResumeRejectsDifferentRunIdentity)
{
    std::string path = tempPath("ckpt_identity.ckpt");
    sim::CompiledProgram prog = sim::compile(kProgram);
    auto machine = pipeline::MachineConfig::proposed();
    auto baseline = pipeline::MachineConfig::baseline();
    pipeline::LoadTelemetry telemetry;

    // Interrupt at the first boundary to leave a snapshot behind.
    sim::CkptPolicy policy;
    policy.path = path;
    policy.everyRetires = 10'000;
    policy.interrupted = [] { return true; };
    sim::CkptStatsOutcome out = sim::runTimedCheckpointed(
        prog, machine, baseline, 500'000'000, &telemetry, nullptr,
        nullptr, {}, policy);
    ASSERT_TRUE(out.interrupted);
    ASSERT_TRUE(ckpt::fileExists(path));

    // Same snapshot, different instruction cap -> Mismatch.
    pipeline::LoadTelemetry telemetry2;
    sim::CkptPolicy resumePolicy;
    expectCkptError(ErrorKind::Mismatch, [&] {
        sim::runTimedCheckpointed(prog, machine, baseline, 999,
                                  &telemetry2, nullptr, nullptr, {},
                                  resumePolicy, path);
    });

    // Same snapshot, different machine -> Mismatch.
    pipeline::LoadTelemetry telemetry3;
    expectCkptError(ErrorKind::Mismatch, [&] {
        sim::runTimedCheckpointed(prog, baseline, baseline,
                                  500'000'000, &telemetry3, nullptr,
                                  nullptr, {}, resumePolicy, path);
    });
    std::remove(path.c_str());
}
