/**
 * @file
 * Deterministic soak-program generation.
 *
 * ProgramGen emits random mini-C programs shaped like the paper's
 * workloads — global arrays walked by strided scans, dependent
 * recurrences, masked gathers, store/load conflicts and sub-word
 * byte traffic — so the campaign's soak workers (elag_campaign
 * --workload=gen) can hammer every speculation path. Programs are
 * terminating by construction: every loop bound is a literal constant
 * and induction variables are only advanced by the loop header. The
 * same seed always yields the same source.
 */

#ifndef ELAG_VERIFY_PROGRAM_GEN_HH
#define ELAG_VERIFY_PROGRAM_GEN_HH

#include <cstdint>
#include <string>

#include "support/random.hh"

namespace elag {
namespace verify {

/** Seeded generator of terminating, memory-heavy mini-C programs. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed);

    /**
     * Generate one program. Deterministic per constructor seed; each
     * call continues the stream, so gen.generate() N times yields N
     * distinct reproducible programs.
     */
    std::string generate();

    /**
     * Generate and discard @p n programs, advancing the stream so the
     * next generate() yields program index n of this seed. Lets a
     * reproducer name one failing program as (seed, skip) without
     * re-materializing its predecessors at every probe site.
     */
    void skip(uint64_t n);

  private:
    std::string kernel(int index);

    Pcg32 rng;
};

} // namespace verify
} // namespace elag

#endif // ELAG_VERIFY_PROGRAM_GEN_HH
