/**
 * @file
 * Optimizer tests. Structural unit tests drive individual passes on
 * hand-built IR; behavioural tests compile mini-C and check the
 * effect on the generated code (e.g. strength reduction turning
 * indexed loads into strided register+offset loads, the shape the
 * classifier's ld_p targets).
 */

#include <gtest/gtest.h>

#include "ir/loops.hh"
#include "ir/printer.hh"
#include "ir/verify.hh"
#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "opt/pass.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"

using namespace elag;
using namespace elag::ir;

namespace {

std::unique_ptr<Module>
compileToIr(const std::string &src,
            const opt::OptConfig &config = opt::OptConfig())
{
    lang::TypeTable types;
    auto ast = lang::parseSource(src, types);
    lang::Sema sema(*ast, types);
    sema.analyze();
    auto mod = irgen::lowerToIr(*ast, types, sema.globalSize());
    opt::runStandardPipeline(*mod, config);
    return mod;
}

size_t
countOps(const Function &fn, IrOpcode op)
{
    size_t n = 0;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts)
            n += inst.op == op;
    }
    return n;
}

size_t
countLoads(const Function &fn, bool reg_offset_only = false)
{
    size_t n = 0;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts) {
            if (!inst.isLoad())
                continue;
            if (reg_offset_only && !inst.b.isImm())
                continue;
            ++n;
        }
    }
    return n;
}

int32_t
runProgram(const std::string &src, const opt::OptConfig &config)
{
    sim::CompileOptions options;
    options.opt = config;
    auto prog = sim::compile(src, options);
    sim::Emulator emu(prog.code.program);
    auto result = emu.run(50'000'000);
    EXPECT_TRUE(result.halted);
    return result.output.empty() ? result.exitValue : result.output[0];
}

} // namespace

TEST(ConstProp, FoldsConstantChains)
{
    auto mod = compileToIr(R"(
        int main() {
            int a = 3;
            int b = a * 4;
            int c = b + 2;
            return c;
        }
    )");
    const Function *main_fn = mod->findFunction("main");
    ASSERT_NE(main_fn, nullptr);
    // Everything folds to 'ret 14': no arithmetic remains.
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Mul), 0u);
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Add), 0u);
}

TEST(ConstProp, FoldsBranchesAndPrunesDeadArms)
{
    auto mod = compileToIr(R"(
        int main() {
            if (3 > 4)
                return 100;
            return 7;
        }
    )");
    const Function *main_fn = mod->findFunction("main");
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Br), 0u);
    EXPECT_EQ(main_fn->blocks().size(), 1u);
}

TEST(ConstProp, StrengthReducesMultiplyByPowerOfTwo)
{
    auto mod = compileToIr(R"(
        int main() {
            int x = 0;
            for (int i = 0; i < 10; i++)
                x += i * 8;
            return x;
        }
    )");
    const Function *main_fn = mod->findFunction("main");
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Mul), 0u);
}

TEST(Dce, RemovesUnusedComputation)
{
    opt::OptConfig only_dce = opt::OptConfig::noneEnabled();
    only_dce.dce = true;
    auto mod = compileToIr(R"(
        int main() {
            int unused = 11 * 13;
            return 5;
        }
    )",
                           only_dce);
    const Function *main_fn = mod->findFunction("main");
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Mul), 0u);
}

TEST(Dce, KeepsCallsForSideEffects)
{
    auto mod = compileToIr(R"(
        int g;
        int touch() { g = g + 1; return g; }
        int main() {
            touch();
            return g;
        }
    )",
                           opt::OptConfig::noneEnabled());
    // With no inlining, the call must remain.
    opt::deadCodeElimination(*mod->findFunction("main"));
    EXPECT_EQ(countOps(*mod->findFunction("main"), IrOpcode::Call),
              1u);
}

TEST(Rle, EliminatesRepeatedLoadInBlock)
{
    opt::OptConfig cfg = opt::OptConfig::noneEnabled();
    cfg.redundantLoadElim = true;
    cfg.dce = true;
    auto mod = compileToIr(R"(
        int main() {
            int buf[4];
            int *p = buf;
            p[0] = 3;
            return p[0] + p[0];
        }
    )",
                           cfg);
    // The store forwards to both loads; no load remains.
    EXPECT_EQ(countLoads(*mod->findFunction("main")), 0u);
}

TEST(Rle, StoreInvalidatesOtherLocations)
{
    int32_t expected = runProgram(R"(
        int a[2];
        int main() {
            int *p = a;
            p[0] = 1;
            int x = p[1];
            p[1] = 9;
            print(x + p[1]);
            return 0;
        }
    )",
                                  opt::OptConfig::noneEnabled());
    int32_t optimized = runProgram(R"(
        int a[2];
        int main() {
            int *p = a;
            p[0] = 1;
            int x = p[1];
            p[1] = 9;
            print(x + p[1]);
            return 0;
        }
    )",
                                   opt::OptConfig());
    EXPECT_EQ(expected, optimized);
    EXPECT_EQ(optimized, 9);
}

TEST(Licm, HoistsInvariantComputation)
{
    opt::OptConfig cfg = opt::OptConfig::noneEnabled();
    cfg.licm = true;
    cfg.constProp = true;
    cfg.copyProp = true;
    cfg.dce = true;
    cfg.simplifyCfg = true;
    // n is loaded from a global so the invariant cannot constant-fold.
    auto mod = compileToIr(R"(
        int g = 100;
        int main() {
            int n = g;
            int total = 0;
            for (int i = 0; i < n; i++) {
                int invariant = n * n;
                total += invariant + i;
            }
            return total;
        }
    )",
                           cfg);
    const Function *main_fn = mod->findFunction("main");
    // The multiply was hoisted out of the loop: it appears exactly
    // once, in a block outside the loop.
    EXPECT_EQ(countOps(*main_fn, IrOpcode::Mul), 1u);
    LoopInfo loops(*const_cast<Function *>(main_fn));
    ASSERT_GE(loops.loops().size(), 1u);
    for (BasicBlock *bb : loops.loops()[0]->blocks) {
        for (const auto &inst : bb->insts)
            EXPECT_NE(inst.op, IrOpcode::Mul);
    }
    // total = sum_{i=0..99} (10000 + i) = 1000000 + 4950
    EXPECT_EQ(runProgram(R"(
        int g = 100;
        int main() {
            int n = g;
            int total = 0;
            for (int i = 0; i < n; i++) {
                int invariant = n * n;
                total += invariant + i;
            }
            print(total);
            return 0;
        }
    )",
                         cfg),
              1004950);
}

TEST(Licm, DoesNotHoistLoadsPastStores)
{
    opt::OptConfig cfg = opt::OptConfig::noneEnabled();
    cfg.licm = true;
    auto mod = compileToIr(R"(
        int g;
        int main() {
            int total = 0;
            for (int i = 0; i < 10; i++) {
                g = i;
                total += g;
            }
            return total;
        }
    )",
                           cfg);
    // The load of g must stay inside the loop (a store aliases it).
    const Function *main_fn = mod->findFunction("main");
    LoopInfo loops(*const_cast<Function *>(main_fn));
    ASSERT_EQ(loops.loops().size(), 1u);
    bool load_in_loop = false;
    for (BasicBlock *bb : loops.loops()[0]->blocks) {
        for (const auto &inst : bb->insts)
            load_in_loop |= inst.isLoad();
    }
    EXPECT_TRUE(load_in_loop);
}

TEST(StrengthReduction, ConvertsIndexedLoadsToStrided)
{
    // a[i] in a counted loop: after SR the loop body loads through a
    // register+offset access off an incremented pointer -- the ld_p
    // target shape of paper Figure 4(b).
    auto mod = compileToIr(R"(
        int a[256];
        int main() {
            int total = 0;
            for (int i = 0; i < 256; i++)
                total += a[i];
            return total;
        }
    )");
    const Function *main_fn = mod->findFunction("main");
    size_t all = countLoads(*main_fn);
    size_t reg_offset = countLoads(*main_fn, true);
    EXPECT_EQ(all, reg_offset) << "indexed load survived SR:\n"
                               << toString(*main_fn);
}

TEST(StrengthReduction, PreservesSemantics)
{
    const char *src = R"(
        int a[64];
        int main() {
            for (int i = 0; i < 64; i++)
                a[i] = i * i;
            int total = 0;
            for (int i = 3; i < 64; i += 5)
                total += a[i];
            print(total);
            return 0;
        }
    )";
    EXPECT_EQ(runProgram(src, opt::OptConfig::noneEnabled()),
              runProgram(src, opt::OptConfig()));
}

TEST(Inlining, InlinesSmallCallee)
{
    auto mod = compileToIr(R"(
        int sq(int x) { return x * x; }
        int main() {
            int total = 0;
            for (int i = 0; i < 10; i++)
                total += sq(i);
            return total;
        }
    )");
    EXPECT_EQ(countOps(*mod->findFunction("main"), IrOpcode::Call),
              0u);
}

TEST(Inlining, SkipsRecursiveFunctions)
{
    auto mod = compileToIr(R"(
        int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }
        int main() { return fact(5); }
    )");
    EXPECT_GE(countOps(*mod->findFunction("main"), IrOpcode::Call),
              1u);
}

TEST(Inlining, MutualRecursionDetected)
{
    auto mod = compileToIr(R"(
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main() { return is_even(10); }
    )");
    SUCCEED(); // must terminate without infinite inlining
}

TEST(SimplifyCfg, MergesStraightLineBlocks)
{
    auto mod = compileToIr(R"(
        int main() {
            int a = 1;
            {
                int b = 2;
                a += b;
            }
            return a;
        }
    )");
    EXPECT_EQ(mod->findFunction("main")->blocks().size(), 1u);
}

TEST(Pipeline, FullPipelinePreservesSemanticsOnBranchyCode)
{
    const char *src = R"(
        int classify(int x) {
            if (x < 0) return -1;
            if (x == 0) return 0;
            if (x < 10) return 1;
            if (x < 100) return 2;
            return 3;
        }
        int main() {
            int total = 0;
            for (int i = -50; i < 150; i++)
                total += classify(i) * (i & 7);
            print(total);
            return 0;
        }
    )";
    EXPECT_EQ(runProgram(src, opt::OptConfig::noneEnabled()),
              runProgram(src, opt::OptConfig()));
}

TEST(Pipeline, VerifierPassesAfterEveryStandardRun)
{
    auto mod = compileToIr(R"(
        int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
        int main() { return fib(10); }
    )");
    EXPECT_NO_THROW(ir::verify(*mod));
}
