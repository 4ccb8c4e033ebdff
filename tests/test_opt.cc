/**
 * @file
 * Optimizer tests. Structural unit tests drive individual passes on
 * hand-built IR; behavioural tests compile mini-C and check the
 * effect on the generated code (e.g. strength reduction turning
 * indexed loads into strided register+offset loads, the shape the
 * classifier's ld_p targets). Known-answer tests pin the machine
 * code and IR text the passes produce, so a pass that reuses an
 * analysis after the IR it describes has changed shows up as a diff.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "ir/loops.hh"
#include "ir/printer.hh"
#include "ir/verify.hh"
#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "opt/pass.hh"
#include "sim/decoded.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

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

/** Values printed by @p emu's program when run to completion. */
std::vector<int32_t>
printedValues(sim::Emulator &emu)
{
    auto result = emu.run(50'000'000);
    EXPECT_TRUE(result.halted);
    return result.output;
}

/** Values printed by @p src compiled under @p config. */
std::vector<int32_t>
printedValues(const std::string &src, const opt::OptConfig &config)
{
    sim::CompileOptions options;
    options.opt = config;
    sim::Emulator emu(sim::compile(src, options).code.program);
    return printedValues(emu);
}

/** Values printed by @p mod, code-generated as it stands. */
std::vector<int32_t>
printedValues(const Module &mod)
{
    sim::Emulator emu(codegen::generateCode(mod).program);
    return printedValues(emu);
}

IrInst
jumpTo(BasicBlock *target)
{
    IrInst inst;
    inst.op = IrOpcode::Jump;
    inst.taken = target;
    return inst;
}

/** if (a != 0) goto taken else goto not_taken */
IrInst
branchNonZero(int a, BasicBlock *taken, BasicBlock *not_taken)
{
    IrInst inst;
    inst.op = IrOpcode::Br;
    inst.cond = CondCode::Ne;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeImm(0);
    inst.taken = taken;
    inst.notTaken = not_taken;
    return inst;
}

/** dest = a OP imm */
IrInst
binImm(IrOpcode op, int dest, int a, int64_t imm)
{
    IrInst inst;
    inst.op = op;
    inst.dest = dest;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeImm(imm);
    return inst;
}

IrInst
movImm(int dest, int64_t imm)
{
    IrInst inst;
    inst.op = IrOpcode::Mov;
    inst.dest = dest;
    inst.a = Operand::makeImm(imm);
    return inst;
}

IrInst
movReg(int dest, int src)
{
    IrInst inst;
    inst.op = IrOpcode::Mov;
    inst.dest = dest;
    inst.a = Operand::makeReg(src);
    return inst;
}

IrInst
printReg(int reg)
{
    IrInst inst;
    inst.op = IrOpcode::Print;
    inst.a = Operand::makeReg(reg);
    return inst;
}

IrInst
retVoid()
{
    IrInst inst;
    inst.op = IrOpcode::Ret;
    return inst;
}

/** A module whose one function, main, is filled in by @p build. */
std::unique_ptr<Module>
handBuilt(void (*build)(Function &))
{
    auto mod = std::make_unique<Module>();
    mod->functions.push_back(std::make_unique<Function>("main"));
    build(*mod->functions.back());
    mod->functions.back()->recomputeCfg();
    ir::verify(*mod);
    return mod;
}

/** Every imitation workload, then one sampled scenario per kernel
 *  family at 1,024 hot loads, as (name, source). */
std::vector<std::pair<std::string, std::string>>
knownAnswerPrograms()
{
    namespace synthetic = workloads::synthetic;
    std::vector<std::pair<std::string, std::string>> programs;
    for (const workloads::Workload *w : workloads::allWorkloads())
        programs.emplace_back(w->name, w->source);
    for (const synthetic::FamilyInfo &info : synthetic::kernelFamilies()) {
        synthetic::ScenarioSpec spec = synthetic::sampleSpec(info.family, 3);
        spec.hotLoads = 1024;
        programs.emplace_back(spec.name(),
                              synthetic::generateScenario(spec).source);
    }
    return programs;
}

/** LICM: the first loop's header has two outside predecessors, so its
 *  preheader is a new block; the second loop then hoists a load. */
const char *LicmAfterPreheaderSrc = R"(
    int g = 9;
    int main() {
        int *p = (int*)alloc(8);
        p[0] = 5;
        p[1] = 4;
        int n = g;
        int i = 0;
        int j = 0;
        int s = 0;
        if (n > 5) s = 1; else s = 2;
        while (i < n) {
            s += p[0];
            i++;
        }
        while (j < n) {
            s += p[1] * j;
            j++;
        }
        print(s);
        return 0;
    }
)";

/** SR: the inner loop is rewritten first, adding vregs to the outer
 *  loop's body that the outer loop's own rewrite must then see. */
const char *NestedStridedSrc = R"(
    int a[8];
    int b[16];
    int main() {
        for (int i = 0; i < 8; i++)
            a[i] = i + 1;
        for (int j = 0; j < 16; j++)
            b[j] = j * j;
        int s = 0;
        for (int j = 0; j < 16; j++) {
            s += b[j];
            for (int i = 0; i < 8; i++)
                s += a[i] * j;
        }
        print(s);
        return 0;
    }
)";

/** v2 = mul v1, 7, then the chain v3 = mov v2; v4 = mov v3;
 *  v5 = mov v4, and v5 is printed. */
void
buildMoveChain(Function &fn)
{
    BasicBlock *bb = fn.newBlock();
    int v[6] = {0};
    for (int i = 1; i < 6; ++i)
        v[i] = fn.newVReg();
    bb->insts.push_back(movImm(v[1], 6));
    bb->insts.push_back(binImm(IrOpcode::Mul, v[2], v[1], 7));
    bb->insts.push_back(movReg(v[3], v[2]));
    bb->insts.push_back(movReg(v[4], v[3]));
    bb->insts.push_back(movReg(v[5], v[4]));
    bb->insts.push_back(printReg(v[5]));
    bb->insts.push_back(retVoid());
}

/**
 * Two straight-line chains from a branch, joined at the end, laid out
 * so that block order differs from chain order:
 *     bb0 -> bb6 -> bb1 -> bb5 -> bb7 -> bb8
 *     bb0 -> bb3 -> bb4 -> bb2 -> bb8
 */
void
buildScrambledChains(Function &fn)
{
    std::vector<BasicBlock *> bb;
    for (int i = 0; i < 9; ++i)
        bb.push_back(fn.newBlock());
    int acc = fn.newVReg();
    bb[0]->insts.push_back(movImm(acc, 3));
    bb[0]->insts.push_back(branchNonZero(acc, bb[6], bb[3]));
    auto link = [&](int from, int to, int64_t addend) {
        int v = fn.newVReg();
        bb[from]->insts.push_back(binImm(IrOpcode::Add, v, acc, addend));
        bb[from]->insts.push_back(printReg(v));
        bb[from]->insts.push_back(jumpTo(bb[to]));
    };
    link(6, 1, 10);
    link(1, 5, 20);
    link(5, 7, 30);
    link(7, 8, 40);
    link(3, 4, 50);
    link(4, 2, 60);
    link(2, 8, 70);
    bb[8]->insts.push_back(printReg(acc));
    bb[8]->insts.push_back(retVoid());
}

/** A branch whose taken side forwards through 70 lone-jump blocks,
 *  more than jumpThreadTarget follows in one walk. */
void
buildLongForwardingChain(Function &fn)
{
    BasicBlock *entry = fn.newBlock();
    std::vector<BasicBlock *> hops;
    for (int i = 0; i < 70; ++i)
        hops.push_back(fn.newBlock());
    BasicBlock *taken = fn.newBlock();
    BasicBlock *other = fn.newBlock();
    BasicBlock *exit = fn.newBlock();
    int flag = fn.newVReg();
    int a = fn.newVReg();
    int b = fn.newVReg();
    entry->insts.push_back(movImm(flag, 1));
    entry->insts.push_back(branchNonZero(flag, hops[0], other));
    for (size_t i = 0; i + 1 < hops.size(); ++i)
        hops[i]->insts.push_back(jumpTo(hops[i + 1]));
    hops.back()->insts.push_back(jumpTo(taken));
    taken->insts.push_back(movImm(a, 100));
    taken->insts.push_back(printReg(a));
    taken->insts.push_back(jumpTo(exit));
    other->insts.push_back(movImm(b, 200));
    other->insts.push_back(printReg(b));
    other->insts.push_back(jumpTo(exit));
    exit->insts.push_back(retVoid());
}

/** A branch whose never-taken side enters a three-block cycle of lone
 *  jumps; three does not divide jumpThreadTarget's 64-hop walk. */
void
buildLoneJumpCycle(Function &fn)
{
    BasicBlock *entry = fn.newBlock();
    BasicBlock *c1 = fn.newBlock();
    BasicBlock *c2 = fn.newBlock();
    BasicBlock *c3 = fn.newBlock();
    BasicBlock *done = fn.newBlock();
    int zero = fn.newVReg();
    int seven = fn.newVReg();
    entry->insts.push_back(movImm(zero, 0));
    entry->insts.push_back(branchNonZero(zero, c1, done));
    c1->insts.push_back(jumpTo(c2));
    c2->insts.push_back(jumpTo(c3));
    c3->insts.push_back(jumpTo(c1));
    done->insts.push_back(movImm(seven, 7));
    done->insts.push_back(printReg(seven));
    done->insts.push_back(retVoid());
}

/** The LICM-focused configuration for LicmAfterPreheaderSrc. */
opt::OptConfig
licmOnly()
{
    opt::OptConfig cfg = opt::OptConfig::noneEnabled();
    cfg.simplifyCfg = true;
    cfg.licm = true;
    return cfg;
}

/**
 * Run @p pass to a fixed point on main of the module @p build makes;
 * expect the values it prints to match the untouched module's.
 * @return main's IR text after the pass.
 */
std::string
afterPass(void (*build)(Function &), bool (*pass)(Function &))
{
    auto before = handBuilt(build);
    auto after = handBuilt(build);
    while (pass(*after->functions[0])) {
    }
    ir::verify(*after);
    EXPECT_EQ(printedValues(*after), printedValues(*before));
    return toString(*after->functions[0]);
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

TEST(Opt, CompiledCodeHasKnownAnswers)
{
    // sim::hashProgram of each program's machine code, in
    // knownAnswerPrograms() order.
    const std::vector<std::pair<std::string, uint64_t>> known = {
        {"008.espresso", 0x1ebf7f3161292458ull},
        {"022.li", 0x9071a1622a6c762dull},
        {"023.eqntott", 0xde3da983ae420e97ull},
        {"026.compress", 0x9210563576dac385ull},
        {"072.sc", 0x76edffbdef6462deull},
        {"085.cc1", 0xce00483d2ff289f6ull},
        {"124.m88ksim", 0x4140916810686747ull},
        {"129.compress", 0x3467bd4568ec1699ull},
        {"130.li", 0xf4695535d891369eull},
        {"132.ijpeg", 0xda91f43bdf916980ull},
        {"134.perl", 0xa15b44d6ec9c9fb3ull},
        {"147.vortex", 0x1742ed898aba51bbull},
        {"adpcm_enc", 0x3b0fdc0386ba4fd2ull},
        {"adpcm_dec", 0x5da6a634c6683b37ull},
        {"g721_enc", 0xbb88f3c36327ace6ull},
        {"g721_dec", 0x2949cdc18da4e53full},
        {"epic_enc", 0xbfe57b78d2f707e0ull},
        {"epic_dec", 0x498a8d2a6f0d116eull},
        {"gsm_enc", 0xc080a2cf18f11519ull},
        {"gsm_dec", 0x3637497ce224ff5full},
        {"gs", 0x11f3d371c9c06ce8ull},
        {"jpeg_dec", 0x218f077a89c81cdbull},
        {"mpeg_dec", 0x799c2c44de855d02ull},
        {"pgp_enc", 0x6a3754f3b637aa62ull},
        {"pgp_dec", 0x9acd47570d11cddaull},
        {"rasta", 0x5de562877f869533ull},
        {"strided-s3-h1024-w16384", 0x7752fc48a2e376cdull},
        {"chase-s3-h1024-w2048", 0xae88fbef30a80e8aull},
        {"gather-s3-h1024-w16384", 0xa331e40d4846fc81ull},
        {"branchy-s3-h1024-w4096", 0xfc96e50b908486b8ull},
    };
    setQuiet(true);
    auto programs = knownAnswerPrograms();
    ASSERT_EQ(programs.size(), known.size());
    for (size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE(programs[i].first);
        EXPECT_EQ(programs[i].first, known[i].first);
        uint64_t hash = sim::hashProgram(
            sim::compile(programs[i].second).code.program);
        EXPECT_EQ(formatString("0x%016llx",
                               static_cast<unsigned long long>(hash)),
                  formatString("0x%016llx",
                               static_cast<unsigned long long>(
                                   known[i].second)));
    }
}

TEST(Licm, LaterLoopHoistsLoadAfterEarlierPreheaderInsert)
{
    auto mod = compileToIr(LicmAfterPreheaderSrc, licmOnly());
    EXPECT_EQ(toString(*mod->findFunction("main")), R"(func main()
bb0: ; entry
  v1 = mov 8
  v2 = call alloc(v1)
  v3 = mov v2
  v4 = mov 5
  store [v3 + 0], v4
  v5 = mov 4
  store [v3 + 4], v5
  v6 = globaladdr +0
  v7 = load [v6 + 0] (ld_n)
  v8 = mov v7
  v9 = mov 0
  v10 = mov 0
  v11 = mov 0
  br gt v8, 5 -> bb1, bb3
bb1:
  v11 = mov 1
  jump bb11
bb3:
  v11 = mov 2
  jump bb11
bb4:
  br lt v9, v8 -> bb5, bb10
bb5:
  v13 = add v11, v12
  v11 = mov v13
  v14 = mov v9
  v15 = add v14, 1
  v9 = mov v15
  jump bb4
bb7:
  br lt v10, v8 -> bb8, bb9
bb8:
  v17 = mul v16, v10
  v18 = add v11, v17
  v11 = mov v18
  v19 = mov v10
  v20 = add v19, 1
  v10 = mov v20
  jump bb7
bb9:
  print v11
  ret 0
bb10:
  v16 = load [v3 + 4] (ld_n)
  jump bb7
bb11:
  v12 = load [v3 + 0] (ld_n)
  jump bb4
)");
    EXPECT_EQ(printedValues(LicmAfterPreheaderSrc, licmOnly()),
              printedValues(LicmAfterPreheaderSrc,
                            opt::OptConfig::noneEnabled()));
}

TEST(StrengthReduction, OuterLoopSeesVRegsOfInnerRewrite)
{
    auto mod = compileToIr(NestedStridedSrc);
    EXPECT_EQ(toString(*mod->findFunction("main")), R"(func main()
bb0: ; entry
  v1 = mov 0
  v36 = globaladdr +0
  jump bb1
bb1:
  br lt v1, 8 -> bb2, bb4
bb2:
  v4 = add v1, 1
  store [v36 + 0], v4
  v1 = add v1, 1
  v36 = add v36, 4
  jump bb1
bb4:
  v7 = mov 0
  v34 = globaladdr +32
  jump bb5
bb5:
  br lt v7, 16 -> bb6, bb8
bb6:
  v10 = mul v7, v7
  store [v34 + 0], v10
  v7 = add v7, 1
  v34 = add v34, 4
  jump bb5
bb8:
  v13 = mov 0
  v14 = mov 0
  v15 = globaladdr +32
  v20 = globaladdr +0
  v32 = mov v15
  jump bb9
bb9:
  br lt v14, 16 -> bb10, bb12
bb10:
  v17 = load [v32 + 0] (ld_n)
  v13 = add v13, v17
  v19 = mov 0
  v30 = mov v20
  jump bb13
bb11:
  v14 = add v14, 1
  v32 = add v32, 4
  jump bb9
bb12:
  print v13
  ret 0
bb13:
  br lt v19, 8 -> bb14, bb11
bb14:
  v22 = load [v30 + 0] (ld_n)
  v23 = mul v22, v14
  v13 = add v13, v23
  v19 = add v19, 1
  v30 = add v30, 4
  jump bb13
)");
    EXPECT_EQ(printedValues(NestedStridedSrc, opt::OptConfig()),
              printedValues(NestedStridedSrc,
                            opt::OptConfig::noneEnabled()));
}

TEST(CoalesceMoves, CollapsesMoveChain)
{
    EXPECT_EQ(afterPass(buildMoveChain, opt::coalesceMoves), R"(func main()
bb0: ; entry
  v1 = mov 6
  v5 = mul v1, 7
  print v5
  ret
)");
}

TEST(SimplifyCfg, MergesChainsInScrambledBlockOrder)
{
    EXPECT_EQ(afterPass(buildScrambledChains, opt::simplifyCfg),
              R"(func main()
bb0: ; entry
  v1 = mov 3
  br ne v1, 0 -> bb6, bb3
bb3:
  v6 = add v1, 50
  print v6
  v7 = add v1, 60
  print v7
  v8 = add v1, 70
  print v8
  jump bb8
bb6:
  v2 = add v1, 10
  print v2
  v3 = add v1, 20
  print v3
  v4 = add v1, 30
  print v4
  v5 = add v1, 40
  print v5
  jump bb8
bb8:
  print v1
  ret
)");
}

TEST(SimplifyCfg, ThreadsForwardingChainLongerThanOneWalk)
{
    EXPECT_EQ(afterPass(buildLongForwardingChain, opt::simplifyCfg),
              R"(func main()
bb0: ; entry
  v1 = mov 1
  br ne v1, 0 -> bb65, bb72
bb65:
  v2 = mov 100
  print v2
  jump bb73
bb72:
  v3 = mov 200
  print v3
  jump bb73
bb73:
  ret
)");
}

TEST(SimplifyCfg, TerminatesOnLoneJumpCycle)
{
    EXPECT_EQ(afterPass(buildLoneJumpCycle, opt::simplifyCfg), R"(func main()
bb0: ; entry
  v1 = mov 0
  br ne v1, 0 -> bb3, bb4
bb3:
  jump bb3
bb4:
  v2 = mov 7
  print v2
  ret
)");
}
