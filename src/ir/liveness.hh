/**
 * @file
 * Virtual-register liveness analysis.
 */

#ifndef ELAG_IR_LIVENESS_HH
#define ELAG_IR_LIVENESS_HH

#include <map>
#include <vector>

#include "ir/ir.hh"

namespace elag {
namespace ir {

/** Per-block live-in/live-out sets of virtual registers. */
class Liveness
{
  public:
    /** A set of vregs, in ascending order. */
    using VRegSet = std::vector<int>;

    /** Compute liveness; the function's CFG must be current. */
    explicit Liveness(const Function &fn);

    /** Sets of a block unreachable from the entry are empty. */
    const VRegSet &liveIn(const BasicBlock *bb) const;
    const VRegSet &liveOut(const BasicBlock *bb) const;

  private:
    std::map<const BasicBlock *, VRegSet> liveIns;
    std::map<const BasicBlock *, VRegSet> liveOuts;
    VRegSet empty;
};

} // namespace ir
} // namespace elag

#endif // ELAG_IR_LIVENESS_HH
