/**
 * @file
 * Per-static-load address profiler (paper Sections 4.3 and 5.2).
 *
 * Runs the Figure-3 stride FSM individually for every static load
 * with no table capacity or conflicts — the paper's "individual
 * operation prediction" methodology. Produces the prediction rates
 * of Tables 2-4 and the profile that drives ld_n -> ld_p upgrades.
 */

#ifndef ELAG_PREDICT_PROFILER_HH
#define ELAG_PREDICT_PROFILER_HH

#include <vector>

#include "classify/classify.hh"
#include "predict/stride_fsm.hh"

namespace elag {
namespace predict {

/** Unbounded per-load stride profiler. */
class AddressProfiler
{
  public:
    /**
     * Observe one dynamic execution of static load @p load_id at
     * effective address @p address.
     */
    void observe(int load_id, uint32_t address);

    /** Profile keyed by load id (executions and correct counts). */
    const classify::AddressProfile &profile() const;

    /** Dynamic executions across all loads (tests). */
    uint64_t totalExecutions() const;

  private:
    struct PerLoad
    {
        StrideFsm fsm;
        classify::LoadProfile prof;
        bool seeded = false;
        bool present = false;
    };

    /**
     * Dense per-load state indexed by load id: observe() runs once
     * per dynamic load, and ids are small sequential integers, so a
     * vector replaces the former per-observation map walk. The
     * map-shaped profile the public API promises is rebuilt only
     * when profile() is called after new observations.
     */
    std::vector<PerLoad> loads;
    mutable classify::AddressProfile cached;
    mutable bool cacheStale = false;
};

} // namespace predict
} // namespace elag

#endif // ELAG_PREDICT_PROFILER_HH
