/**
 * @file
 * Automatic failure shrinking by delta debugging.
 *
 * When a campaign job fails, the raw reproducer is usually too big to
 * debug: dozens of generated programs times a list of fault plans.
 * ddmin() (Zeller & Hildebrandt's minimizing delta debugging) reduces
 * any index set whose failure is decided by an oracle callback to a
 * 1-minimal failing subset — removing any single remaining element
 * makes the failure disappear.
 *
 * ddmin() is oracle-agnostic: tools/elag_campaign plugs in "re-run
 * the job in a sandboxed subprocess and compare the failure
 * taxonomy", tests plug in cheap synthetic predicates or in-process
 * simulation.
 */

#ifndef ELAG_VERIFY_SHRINKER_HH
#define ELAG_VERIFY_SHRINKER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace elag {
namespace verify {

/**
 * Failure oracle over a candidate subset (ascending indices into the
 * original item list). Returns true when the configuration built
 * from exactly these items still exhibits the original failure.
 */
using SubsetOracle =
    std::function<bool(const std::vector<size_t> &keep)>;

/** Bookkeeping from one shrink run. */
struct ShrinkStats
{
    uint64_t probes = 0;    ///< oracle invocations actually executed
    uint64_t cacheHits = 0; ///< subsets answered from the probe cache
};

/**
 * Minimize the failing index set [0, n) with ddmin.
 *
 * Preconditions: the full set fails (callers have already observed
 * the failure; this is re-checked and the full set is returned if the
 * failure no longer reproduces — a flaky failure must not shrink to
 * nonsense). The oracle must be deterministic for the result to be
 * 1-minimal. Duplicate subsets are cached, so oracles backed by
 * expensive subprocess runs are probed at most once per candidate.
 *
 * @return ascending minimal failing indices (empty only when n == 0).
 */
std::vector<size_t> ddmin(size_t n, const SubsetOracle &stillFails,
                          ShrinkStats *stats = nullptr);

} // namespace verify
} // namespace elag

#endif // ELAG_VERIFY_SHRINKER_HH
