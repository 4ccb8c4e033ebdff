/**
 * @file
 * Virtual-register liveness analysis.
 */

#ifndef ELAG_IR_LIVENESS_HH
#define ELAG_IR_LIVENESS_HH

#include <map>
#include <set>

#include "ir/ir.hh"

namespace elag {
namespace ir {

/** Per-block live-in/live-out sets of virtual registers. */
class Liveness
{
  public:
    /** Compute liveness; the function's CFG must be current. */
    explicit Liveness(const Function &fn);

    const std::set<int> &liveIn(const BasicBlock *bb) const;
    const std::set<int> &liveOut(const BasicBlock *bb) const;

  private:
    std::map<const BasicBlock *, std::set<int>> liveIns;
    std::map<const BasicBlock *, std::set<int>> liveOuts;
    std::set<int> empty;
};

} // namespace ir
} // namespace elag

#endif // ELAG_IR_LIVENESS_HH
