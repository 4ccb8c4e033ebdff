/**
 * @file
 * Compiler-directed load classification — the paper's core
 * contribution (Section 4).
 *
 * Assigns one of the three load specifiers to every static load:
 *
 *  - ld_p (Predict): arithmetic-dependent loads whose addresses are
 *    expected to be constant or strided, served by the table-based
 *    address prediction path;
 *  - ld_e (EarlyCalc): load-dependent loads (pointer chasing) in the
 *    largest base-register group, served by the R_addr early
 *    calculation path;
 *  - ld_n (Normal): everything else, kept out of both structures so
 *    they are not polluted.
 *
 * Cyclic code uses the S_load closure heuristic of Section 4.1;
 * acyclic code uses the absolute-address heuristic of Section 4.2;
 * address profiles optionally upgrade mispredicted-as-unpredictable
 * loads per Section 4.3.
 */

#ifndef ELAG_CLASSIFY_CLASSIFY_HH
#define ELAG_CLASSIFY_CLASSIFY_HH

#include <map>

#include "ir/ir.hh"

namespace elag {
namespace classify {

/** Static classification counts, per specifier. */
struct ClassifyStats
{
    int numNormal = 0;
    int numPredict = 0;
    int numEarlyCalc = 0;

    int total() const { return numNormal + numPredict + numEarlyCalc; }
};

/**
 * Classify every load in the module in place (setting
 * IrInst::spec) and return static counts.
 */
ClassifyStats classifyLoads(ir::Module &mod);

/**
 * Reset every load to ld_n (the configuration used to model
 * hardware-only machines, where opcodes carry no hint).
 */
void clearClassification(ir::Module &mod);

/** Per-static-load address-profile record (Section 4.3). */
struct LoadProfile
{
    uint64_t executions = 0;
    /** Times the Figure-3 stride FSM predicted the address right. */
    uint64_t correct = 0;

    double
    rate() const
    {
        return executions == 0
                   ? 0.0
                   : static_cast<double>(correct) /
                         static_cast<double>(executions);
    }
};

/** Profile data keyed by IrInst::loadId. */
using AddressProfile = std::map<int, LoadProfile>;

/**
 * Profile-guided reclassification (Section 4.3): loads classified
 * ld_n whose profiled prediction rate exceeds @p threshold become
 * ld_p. Nothing else is overruled.
 * @return number of loads upgraded.
 */
int applyAddressProfile(ir::Module &mod, const AddressProfile &profile,
                        double threshold = 0.60);

} // namespace classify
} // namespace elag

#endif // ELAG_CLASSIFY_CLASSIFY_HH
