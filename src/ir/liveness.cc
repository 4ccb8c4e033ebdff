#include "ir/liveness.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace elag {
namespace ir {

Liveness::Liveness(const Function &fn)
{
    // The CFG does not change during the analysis, so the block order
    // (reverse RPO, for fast convergence) and the successor indices
    // are computed once. Unreachable blocks get no sets.
    std::vector<BasicBlock *> order = fn.rpo();
    std::reverse(order.begin(), order.end());
    const size_t n = order.size();
    std::map<const BasicBlock *, size_t> index;
    for (size_t i = 0; i < n; ++i)
        index[order[i]] = i;

    // One bit vector over the vregs per block: block i's set is the
    // words [i * words, (i + 1) * words) of each array.
    const size_t words = (static_cast<size_t>(fn.vregLimit()) + 63) / 64;
    std::vector<uint64_t> uses(n * words), defs(n * words);
    std::vector<uint64_t> ins(n * words), outs(n * words);
    auto word = [&](std::vector<uint64_t> &bits, size_t i,
                    int v) -> uint64_t & {
        return bits[i * words + static_cast<size_t>(v) / 64];
    };
    auto mask = [](int v) { return uint64_t{1} << (v % 64); };

    // Per-block use (upward-exposed) and def sets.
    std::vector<std::vector<size_t>> succs(n);
    std::vector<int> srcs;
    for (size_t i = 0; i < n; ++i) {
        for (const BasicBlock *succ : order[i]->succs)
            succs[i].push_back(index.at(succ));
        for (const auto &inst : order[i]->insts) {
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs) {
                if (!(word(defs, i, s) & mask(s)))
                    word(uses, i, s) |= mask(s);
            }
            if (inst.dest)
                word(defs, i, inst.dest) |= mask(inst.dest);
        }
    }

    // Round-robin to the least fixed point, which is unique, so the
    // sets match any other iteration order.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < n; ++i) {
            for (size_t w = i * words; w < (i + 1) * words; ++w) {
                uint64_t out = 0;
                for (size_t s : succs[i])
                    out |= ins[s * words + w - i * words];
                uint64_t in = uses[w] | (out & ~defs[w]);
                if (out != outs[w] || in != ins[w]) {
                    outs[w] = out;
                    ins[w] = in;
                    changed = true;
                }
            }
        }
    }

    auto materialise = [&](const std::vector<uint64_t> &bits, size_t i) {
        VRegSet vregs;
        for (size_t w = 0; w < words; ++w) {
            for (uint64_t m = bits[i * words + w]; m; m &= m - 1) {
                vregs.push_back(static_cast<int>(w * 64) +
                                std::countr_zero(m));
            }
        }
        return vregs;
    };
    for (size_t i = 0; i < n; ++i) {
        liveIns[order[i]] = materialise(ins, i);
        liveOuts[order[i]] = materialise(outs, i);
    }
}

const Liveness::VRegSet &
Liveness::liveIn(const BasicBlock *bb) const
{
    auto it = liveIns.find(bb);
    return it == liveIns.end() ? empty : it->second;
}

const Liveness::VRegSet &
Liveness::liveOut(const BasicBlock *bb) const
{
    auto it = liveOuts.find(bb);
    return it == liveOuts.end() ? empty : it->second;
}

} // namespace ir
} // namespace elag
