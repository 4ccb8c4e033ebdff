/**
 * @file
 * Differential kill-resume equivalence check.
 *
 * The checkpoint subsystem's correctness anchor: an uninterrupted
 * stats run and a run interrupted at every snapshot boundary — each
 * leg restored into freshly constructed simulator and observer
 * objects, exactly as a new process would — must produce
 * byte-identical stats documents. Any divergence means some piece of
 * simulation state escaped the serialize/restore hooks, which is the
 * one failure mode a checkpoint format cannot tolerate silently.
 *
 * Built as its own library (elag_ckptdiff) because it drives full
 * simulations: elag_verify itself is linked *by* the pipeline and
 * cannot depend back on elag_sim.
 */

#ifndef ELAG_VERIFY_CKPT_DIFF_HH
#define ELAG_VERIFY_CKPT_DIFF_HH

#include <cstdint>
#include <string>

namespace elag {
namespace verify {

/** Outcome of one differential check. */
struct CkptDiffResult
{
    /** The two stats documents were byte-identical. */
    bool equivalent = false;
    /** Interrupt-resume legs executed (0 means it never stopped). */
    uint32_t legs = 0;
    /** Stats JSON of the uninterrupted reference run. */
    std::string reference;
    /** Stats JSON of the interrupted-and-resumed run. */
    std::string resumed;
    /** Human-readable divergence summary (empty when equivalent). */
    std::string detail;
};

/**
 * Compile @p source, run it once uninterrupted and once interrupted
 * at every @p boundary_retires chunk boundary (snapshot to
 * @p ckpt_path, discard all live state, restore into fresh objects,
 * continue), and compare the two final stats documents byte for
 * byte. When @p with_checker is set the lockstep invariant checker
 * rides along on both sides, proving its shadow state survives the
 * round trip too. The snapshot file is removed on success. A test
 * oracle: only tests call it.
 */
CkptDiffResult
checkKillResumeEquivalence(const std::string &source,
                           const std::string &ckpt_path,
                           uint64_t max_instructions,
                           uint64_t boundary_retires,
                           bool with_checker = false);

} // namespace verify
} // namespace elag

#endif // ELAG_VERIFY_CKPT_DIFF_HH
