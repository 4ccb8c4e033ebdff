/**
 * @file
 * Structured-program fuzzing: generate random mini-C programs while
 * simultaneously evaluating them against a reference model with
 * exact 32-bit semantics; then compile and run each program with the
 * optimizer off and fully on, requiring all three agree.
 *
 * Unlike the opt-vs-noopt differential alone, the reference model
 * catches frontend/irgen bugs that are consistent across
 * configurations (e.g. postfix-increment aliasing).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace elag;

namespace {

/** Generates a random program and tracks its exact state. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng(seed)
    {
        for (int i = 0; i < NumVars; ++i)
            vars[i] = rng.nextRange(-50, 50);
    }

    /** A program of @p statements top-level statements. */
    std::string
    generate(int statements = 24)
    {
        std::string src = "int main() {\n";
        for (int i = 0; i < NumVars; ++i) {
            src += "    int v" + std::to_string(i) + " = " +
                   std::to_string(vars[i]) + ";\n";
        }
        for (int i = 0; i < statements; ++i)
            src += statement(1);
        // Print a mixing checksum of all variables.
        src += "    print(";
        for (int i = 0; i < NumVars; ++i) {
            if (i)
                src += " ^ ";
            src += "(v" + std::to_string(i) + " + " +
                   std::to_string(i * 1000) + ")";
        }
        src += ");\n    return 0;\n}\n";

        int32_t check = 0;
        for (int i = 0; i < NumVars; ++i) {
            check ^= static_cast<int32_t>(
                static_cast<uint32_t>(vars[i]) +
                static_cast<uint32_t>(i * 1000));
        }
        expected_ = check;
        return src;
    }

    int32_t expected() const { return expected_; }

  private:
    static constexpr int NumVars = 5;

    /** Pure expression over current values; returns (text, value). */
    std::pair<std::string, int32_t>
    expr(int depth)
    {
        if (depth == 0 || rng.nextBool(0.4)) {
            if (rng.nextBool(0.6)) {
                int v = static_cast<int>(rng.nextBounded(NumVars));
                return {"v" + std::to_string(v), vars[v]};
            }
            int32_t lit = rng.nextRange(-20, 20);
            return {"(" + std::to_string(lit) + ")", lit};
        }
        auto [ls, lv] = expr(depth - 1);
        auto [rs, rv] = expr(depth - 1);
        uint32_t ul = static_cast<uint32_t>(lv);
        uint32_t ur = static_cast<uint32_t>(rv);
        switch (rng.nextBounded(7)) {
          case 0:
            return {"(" + ls + " + " + rs + ")",
                    static_cast<int32_t>(ul + ur)};
          case 1:
            return {"(" + ls + " - " + rs + ")",
                    static_cast<int32_t>(ul - ur)};
          case 2:
            return {"(" + ls + " * " + rs + ")",
                    static_cast<int32_t>(ul * ur)};
          case 3:
            return {"(" + ls + " ^ " + rs + ")", lv ^ rv};
          case 4:
            return {"(" + ls + " & " + rs + ")", lv & rv};
          case 5:
            return {"(" + ls + " < " + rs + ")", lv < rv ? 1 : 0};
          default:
            return {"(" + ls + " == " + rs + ")", lv == rv ? 1 : 0};
        }
    }

    std::string
    statement(int depth)
    {
        switch (rng.nextBounded(depth > 0 ? 6u : 4u)) {
          case 0: { // plain assignment
            int v = static_cast<int>(rng.nextBounded(NumVars));
            auto [es, ev] = expr(2);
            vars[v] = ev;
            return "    v" + std::to_string(v) + " = " + es + ";\n";
          }
          case 1: { // compound assignment
            int v = static_cast<int>(rng.nextBounded(NumVars));
            auto [es, ev] = expr(2);
            const char *ops[] = {"+=", "-=", "^=", "&=", "|="};
            int which = static_cast<int>(rng.nextBounded(5));
            uint32_t uv = static_cast<uint32_t>(vars[v]);
            uint32_t ue = static_cast<uint32_t>(ev);
            switch (which) {
              case 0: vars[v] = static_cast<int32_t>(uv + ue); break;
              case 1: vars[v] = static_cast<int32_t>(uv - ue); break;
              case 2: vars[v] = vars[v] ^ ev; break;
              case 3: vars[v] = vars[v] & ev; break;
              case 4: vars[v] = vars[v] | ev; break;
            }
            return "    v" + std::to_string(v) + " " + ops[which] +
                   " " + es + ";\n";
          }
          case 2: { // increment/decrement statement
            int v = static_cast<int>(rng.nextBounded(NumVars));
            bool inc = rng.nextBool();
            bool post = rng.nextBool();
            vars[v] = static_cast<int32_t>(
                static_cast<uint32_t>(vars[v]) + (inc ? 1u : -1u));
            std::string name = "v" + std::to_string(v);
            return "    " + (post ? name + (inc ? "++" : "--")
                                  : (inc ? "++" : "--") + name) +
                   ";\n";
          }
          case 3: { // postfix value capture: vA = vB++ + literal
            // The addend must not mention vB: reading a variable in
            // the same expression as its ++ is unsequenced in C.
            int a = static_cast<int>(rng.nextBounded(NumVars));
            int b = static_cast<int>(rng.nextBounded(NumVars));
            if (a == b)
                b = (b + 1) % NumVars;
            int32_t ev = rng.nextRange(-20, 20);
            std::string es = "(" + std::to_string(ev) + ")";
            int32_t old_b = vars[b];
            vars[b] = static_cast<int32_t>(
                static_cast<uint32_t>(vars[b]) + 1u);
            vars[a] = static_cast<int32_t>(
                static_cast<uint32_t>(old_b) +
                static_cast<uint32_t>(ev));
            return "    v" + std::to_string(a) + " = v" +
                   std::to_string(b) + "++ + " + es + ";\n";
          }
          case 4: { // if/else with known outcome
            auto [cs, cv] = expr(2);
            // Snapshot BEFORE generating either arm: only the arm
            // the (known) condition selects may mutate the model.
            int32_t snapshot[NumVars];
            for (int i = 0; i < NumVars; ++i)
                snapshot[i] = vars[i];
            std::string then_s = statement(depth - 1);
            int32_t after_then[NumVars];
            for (int i = 0; i < NumVars; ++i) {
                after_then[i] = vars[i];
                vars[i] = snapshot[i];
            }
            std::string else_s = statement(depth - 1);
            if (cv != 0) {
                // then taken: discard else effects, re-apply then's.
                for (int i = 0; i < NumVars; ++i)
                    vars[i] = after_then[i];
            }
            // else taken: keep the else effects already in vars.
            return "    if (" + cs + ") {\n    " + then_s +
                   "    } else {\n    " + else_s + "    }\n";
          }
          default: { // bounded counted loop
            int v = static_cast<int>(rng.nextBounded(NumVars));
            int iters = 1 + static_cast<int>(rng.nextBounded(8));
            // The body expression must not read the target variable:
            // the model adds a value fixed at generation time, while
            // the program would re-evaluate it every iteration.
            std::string es;
            int32_t ev = 0;
            std::string self = "v" + std::to_string(v);
            for (int attempt = 0; attempt < 8; ++attempt) {
                auto [cand_s, cand_v] = expr(1);
                if (cand_s.find(self) == std::string::npos) {
                    es = cand_s;
                    ev = cand_v;
                    break;
                }
            }
            if (es.empty()) {
                ev = rng.nextRange(-10, 10);
                es = "(" + std::to_string(ev) + ")";
            }
            for (int k = 0; k < iters; ++k) {
                vars[v] = static_cast<int32_t>(
                    static_cast<uint32_t>(vars[v]) +
                    static_cast<uint32_t>(ev));
            }
            return "    for (int t = 0; t < " +
                   std::to_string(iters) + "; t++) v" +
                   std::to_string(v) + " += " + es + ";\n";
        }
        }
    }

    Pcg32 rng;
    int32_t vars[NumVars];
    int32_t expected_ = 0;
};

int32_t
runWith(const std::string &src, bool optimize)
{
    sim::CompileOptions options;
    if (!optimize)
        options.opt = opt::OptConfig::noneEnabled();
    auto prog = sim::compile(src, options);
    sim::Emulator emu(prog.code.program);
    auto result = emu.run(10'000'000);
    EXPECT_TRUE(result.halted);
    return result.output.empty() ? -1 : result.output[0];
}

} // namespace

TEST(Fuzz, StructuredProgramsMatchReferenceModel)
{
    setQuiet(true);
    for (uint64_t seed = 1; seed <= 80; ++seed) {
        ProgramGen gen(seed);
        std::string src = gen.generate();
        SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);
        EXPECT_EQ(runWith(src, false), gen.expected());
        EXPECT_EQ(runWith(src, true), gen.expected());
    }
}

TEST(Fuzz, WorkloadSizedProgramsStayConsistent)
{
    // Larger programs (200 statements) hit register pressure and the
    // full pass pipeline.
    setQuiet(true);
    for (uint64_t seed = 500; seed <= 506; ++seed) {
        ProgramGen gen(seed);
        std::string src = gen.generate(200);
        SCOPED_TRACE("seed " + std::to_string(seed));
        int32_t no_opt = runWith(src, false);
        int32_t opt = runWith(src, true);
        EXPECT_EQ(no_opt, gen.expected());
        EXPECT_EQ(opt, gen.expected());
    }
}
