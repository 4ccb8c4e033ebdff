/**
 * @file
 * Cycle-level anatomy of the three load kinds (paper Figure 1),
 * reproduced by feeding hand-built committed-instruction streams to
 * the timing model and reporting the effective load-use distance.
 *
 * Also prints the compiled code for the paper's Figure 4 examples so
 * the opcode selection is visible.
 */

#include <cstdio>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "pipeline/pipeline.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"

using namespace elag;
using namespace elag::isa;
namespace build = elag::isa::build;
using pipeline::MachineConfig;
using pipeline::Pipeline;
using pipeline::RetiredInst;
using pipeline::makeRetired;

namespace {

/** Measure steady-state cycles per iteration of load -> use -> br. */
double
cyclesPerIteration(LoadSpec spec, bool strided)
{
    Pipeline pipe(MachineConfig::proposed());
    const int iters = 2000;
    for (int i = 0; i < iters; ++i) {
        RetiredInst ld = makeRetired(100, build::load(spec, 10, 1, 0));
        ld.effAddr =
            strided ? 0x1000 + static_cast<uint32_t>(i % 16) * 4
                    : 0x1000;
        ld.nextPc = 101;
        pipe.retire(ld);

        RetiredInst use = makeRetired(101, build::add(11, 10, 10));
        use.nextPc = 102;
        pipe.retire(use);

        RetiredInst br =
            makeRetired(102, build::branch(Opcode::BLT, 5, 6, 100));
        br.taken = i + 1 < iters;
        br.nextPc = br.taken ? 100 : 103;
        pipe.retire(br);
    }
    return static_cast<double>(pipe.finish().cycles) / iters;
}

} // namespace

int
main()
{
    setQuiet(true);

    std::printf("=== Pipeline anatomy (paper Figures 1 and 2) ===\n\n");
    std::printf("Six stages: IF ID1 ID2 EXE MEM WB\n");
    std::printf(" - ld_n: EA in EXE, D$ in MEM -> 2-cycle latency\n");
    std::printf(" - ld_p: table probe in ID1, speculative D$ in ID2,\n");
    std::printf("         verify in EXE -> 1-cycle latency on success\n");
    std::printf(" - ld_e: R_addr adder + speculative D$ in ID1 ->\n");
    std::printf("         0-cycle latency on success\n\n");

    std::printf("steady-state cycles per (load; use; branch) "
                "iteration, strided address:\n");
    std::printf("    ld_n  %.3f\n",
                cyclesPerIteration(LoadSpec::Normal, true));
    std::printf("    ld_p  %.3f\n",
                cyclesPerIteration(LoadSpec::Predict, true));
    std::printf("    ld_e (base stable) %.3f\n",
                cyclesPerIteration(LoadSpec::EarlyCalc, false));

    // Figure 4 reproduction: compile the paper's two source snippets
    // and print the classified assembly.
    std::printf("\n=== Paper Figure 4a/4b: for-loop ===\n");
    auto for_prog = sim::compile(R"(
        int arr1[256];
        int arr2[256];
        int ind[256];
        int main() {
            int s = 0;
            for (int i = 0; i < 256; i++) {
                s += arr1[ind[i]];
                s += arr2[i];
            }
            print(s);
            return 0;
        }
    )");
    std::printf("%s\n",
                isa::disassemble(for_prog.code.program).c_str());

    std::printf("=== Paper Figure 4c/4d: while-loop ===\n");
    auto while_prog = sim::compile(R"(
        int main() {
            int *head = (int*)0;
            for (int i = 0; i < 8; i++) {
                int *n = (int*)alloc(12);
                n[0] = i; n[1] = i * 2; n[2] = (int)head;
                head = n;
            }
            int s = 0;
            int *p = head;
            while (p) {
                s += p[0];
                s += p[1];
                p = (int*)p[2];
            }
            print(s);
            return 0;
        }
    )");
    // Print only main (skip the alloc runtime).
    std::string text = isa::disassemble(while_prog.code.program);
    size_t main_pos = text.find("main:");
    std::printf("%s\n", main_pos == std::string::npos
                            ? text.c_str()
                            : text.c_str() + main_pos);
    std::printf("Note the ld_e opcodes on the p[0]/p[1]/p[2] chase\n"
                "loads and ld_p on the induction-driven array loads —\n"
                "the paper's Figure 4 classification.\n");
    return 0;
}
