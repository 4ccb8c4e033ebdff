/**
 * @file
 * Optimization pass interfaces and the standard pipeline.
 *
 * The paper (Section 4) applies its load-classification heuristics
 * after "classical optimizations including function inlining, virtual
 * register allocation, local/global constant propagation, local/global
 * copy propagation, local/global redundant load elimination, loop
 * invariant code removal, and induction variable elimination/strength
 * reduction", because those passes promote variables to registers and
 * expose the load-dependence structure. This module implements that
 * pipeline.
 */

#ifndef ELAG_OPT_PASS_HH
#define ELAG_OPT_PASS_HH

#include <string>

#include "ir/ir.hh"

namespace elag {
namespace opt {

/** Configuration for the standard optimization pipeline. */
struct OptConfig
{
    bool inlining = true;
    bool constProp = true;
    bool copyProp = true;
    bool redundantLoadElim = true;
    bool licm = true;
    bool strengthReduction = true;
    bool dce = true;
    bool simplifyCfg = true;

    /** All passes off (for the "unoptimized" ablation). */
    static OptConfig noneEnabled();
};

/**
 * Run the standard pipeline over the module and re-number loads.
 * The module is verified before and after.
 */
void runStandardPipeline(ir::Module &mod,
                         const OptConfig &config = OptConfig());

// Individual passes (exposed for unit testing). Each returns true if
// it changed the function/module.
bool simplifyCfg(ir::Function &fn);
bool constantPropagation(ir::Function &fn);
bool copyPropagation(ir::Function &fn);
/**
 * Rewrite adjacent "t = op ...; x = mov t" pairs (t used only by the
 * mov) into "x = op ...". Restores the canonical loop-carried update
 * form "iv = add iv, k" that induction-variable detection expects.
 */
bool coalesceMoves(ir::Function &fn);
bool deadCodeElimination(ir::Function &fn);
bool redundantLoadElimination(ir::Function &fn);
bool loopInvariantCodeMotion(ir::Function &fn);
bool strengthReduceInductionVariables(ir::Function &fn);
bool inlineFunctions(ir::Module &mod);

} // namespace opt
} // namespace elag

#endif // ELAG_OPT_PASS_HH
