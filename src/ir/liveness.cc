#include "ir/liveness.hh"


namespace elag {
namespace ir {

Liveness::Liveness(const Function &fn)
{
    // Per-block use (upward-exposed) and def sets.
    std::map<const BasicBlock *, std::set<int>> uses;
    std::map<const BasicBlock *, std::set<int>> defs;
    for (const auto &bb : fn.blocks()) {
        std::set<int> &use = uses[bb.get()];
        std::set<int> &def = defs[bb.get()];
        std::vector<int> srcs;
        for (const auto &inst : bb->insts) {
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs) {
                if (!def.count(s))
                    use.insert(s);
            }
            if (inst.dest)
                def.insert(inst.dest);
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        // Iterate blocks in reverse RPO for fast convergence.
        std::vector<BasicBlock *> order =
            const_cast<Function &>(fn).rpo();
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const BasicBlock *bb = *it;
            std::set<int> out;
            for (const BasicBlock *succ : bb->succs) {
                const std::set<int> &in = liveIns[succ];
                out.insert(in.begin(), in.end());
            }
            std::set<int> in = uses[bb];
            for (int v : out) {
                if (!defs[bb].count(v))
                    in.insert(v);
            }
            if (out != liveOuts[bb] || in != liveIns[bb]) {
                liveOuts[bb] = std::move(out);
                liveIns[bb] = std::move(in);
                changed = true;
            }
        }
    }
}

const std::set<int> &
Liveness::liveIn(const BasicBlock *bb) const
{
    auto it = liveIns.find(bb);
    return it == liveIns.end() ? empty : it->second;
}

const std::set<int> &
Liveness::liveOut(const BasicBlock *bb) const
{
    auto it = liveOuts.find(bb);
    return it == liveOuts.end() ? empty : it->second;
}

} // namespace ir
} // namespace elag
