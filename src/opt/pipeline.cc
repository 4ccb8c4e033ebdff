#include "opt/pass.hh"

#include "ir/verify.hh"

namespace elag {
namespace opt {

OptConfig
OptConfig::noneEnabled()
{
    OptConfig c;
    c.inlining = false;
    c.constProp = false;
    c.copyProp = false;
    c.redundantLoadElim = false;
    c.licm = false;
    c.strengthReduction = false;
    c.dce = false;
    c.simplifyCfg = false;
    return c;
}

namespace {

/** One scalar-cleanup round; returns true if anything changed. */
bool
cleanupRound(ir::Function &fn, const OptConfig &config)
{
    bool changed = false;
    if (config.constProp)
        changed |= constantPropagation(fn);
    if (config.copyProp) {
        changed |= copyPropagation(fn);
        changed |= coalesceMoves(fn);
    }
    if (config.redundantLoadElim)
        changed |= redundantLoadElimination(fn);
    if (config.dce)
        changed |= deadCodeElimination(fn);
    return changed;
}

} // anonymous namespace

void
runStandardPipeline(ir::Module &mod, const OptConfig &config)
{
    ir::verify(mod);

    if (config.inlining)
        inlineFunctions(mod);

    for (auto &fn : mod.functions) {
        fn->removeUnreachable();
        if (config.simplifyCfg)
            simplifyCfg(*fn);

        for (int round = 0; round < 4; ++round) {
            if (!cleanupRound(*fn, config))
                break;
        }

        if (config.licm)
            loopInvariantCodeMotion(*fn);
        if (config.strengthReduction)
            strengthReduceInductionVariables(*fn);

        for (int round = 0; round < 4; ++round) {
            if (!cleanupRound(*fn, config))
                break;
        }
        if (config.simplifyCfg)
            simplifyCfg(*fn);
        fn->removeUnreachable();
    }

    mod.numberLoads();
    ir::verify(mod);
}

} // namespace opt
} // namespace elag
