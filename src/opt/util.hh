/**
 * @file
 * Shared helpers for the optimization passes.
 */

#ifndef ELAG_OPT_UTIL_HH
#define ELAG_OPT_UTIL_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ir/ir.hh"

namespace elag {
namespace opt {

/** Location of one instruction. */
struct InstRef
{
    ir::BasicBlock *block = nullptr;
    size_t index = 0;

    ir::IrInst &inst() const { return block->insts[index]; }
};

/** Definition sites of each vreg, keyed by vreg. */
using DefMap = std::map<int, std::vector<InstRef>>;

/** All definition sites of every vreg in the function. */
DefMap collectDefs(ir::Function &fn);

/** Number of uses of every vreg. */
std::map<int, int> countUses(const ir::Function &fn);

/** Evaluate a binary IR op on 32-bit wrapped values. */
int32_t evalIrOp(ir::IrOpcode op, int32_t a, int32_t b);

/** @return true if @p op is a pure dest = a OP b arithmetic op. */
bool isPureBinaryOp(ir::IrOpcode op);

} // namespace opt
} // namespace elag

#endif // ELAG_OPT_UTIL_HH
