/**
 * @file
 * Workload validation: every registered workload compiles, runs to
 * HALT, and produces identical output with and without the optimizer
 * (optimizer soundness) and with and without the classifier (the
 * classifier must never change program semantics).
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

using namespace elag;

namespace {

class WorkloadTest
    : public ::testing::TestWithParam<workloads::Workload>
{
  protected:
    void SetUp() override { setQuiet(true); }
};

constexpr uint64_t MaxInst = 80'000'000;

} // namespace

TEST_P(WorkloadTest, RunsToCompletion)
{
    const auto &w = GetParam();
    auto prog = sim::compile(w.source);
    sim::Emulator emu(prog.code.program);
    auto result = emu.run(MaxInst);
    EXPECT_TRUE(result.halted) << w.name << " hit the instruction cap";
    EXPECT_FALSE(result.output.empty())
        << w.name << " printed no checksum";
    if (!w.expectedOutput.empty()) {
        EXPECT_EQ(result.output, w.expectedOutput);
    }
}

TEST_P(WorkloadTest, OptimizerPreservesSemantics)
{
    const auto &w = GetParam();
    sim::CompileOptions no_opt;
    no_opt.opt = opt::OptConfig::noneEnabled();
    auto baseline = sim::compile(w.source, no_opt);
    auto optimized = sim::compile(w.source);

    sim::Emulator emu_base(baseline.code.program);
    sim::Emulator emu_opt(optimized.code.program);
    auto r_base = emu_base.run(MaxInst * 2);
    auto r_opt = emu_opt.run(MaxInst);
    ASSERT_TRUE(r_base.halted) << w.name;
    ASSERT_TRUE(r_opt.halted) << w.name;
    EXPECT_EQ(r_base.output, r_opt.output) << w.name;
    EXPECT_EQ(r_base.exitValue, r_opt.exitValue) << w.name;
    // Optimization should not grow the dynamic instruction count.
    EXPECT_LE(r_opt.instructions, r_base.instructions) << w.name;
}

TEST_P(WorkloadTest, ClassifierAssignsAllThreeKinds)
{
    const auto &w = GetParam();
    auto prog = sim::compile(w.source);
    // Every workload must have some loads, and the classifier must
    // have decided something for each.
    EXPECT_GT(prog.classStats.total(), 0) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    Spec, WorkloadTest,
    ::testing::ValuesIn(workloads::specWorkloads()),
    [](const ::testing::TestParamInfo<workloads::Workload> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (c == '.' || c == '-')
                c = '_';
        }
        return name;
    });

INSTANTIATE_TEST_SUITE_P(
    Media, WorkloadTest,
    ::testing::ValuesIn(workloads::mediaWorkloads()),
    [](const ::testing::TestParamInfo<workloads::Workload> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (c == '.' || c == '-')
                c = '_';
        }
        return name;
    });
