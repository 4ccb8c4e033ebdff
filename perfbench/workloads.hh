/**
 * @file
 * The three benchmark workloads. Each runs its set-up, its timed
 * region and its output checks, and fills a Result with the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run). perfbench/METRICS.md lists what each measures and why.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

Result runSimSweep(const Options &opt);
Result runCompileCorpus(const Options &opt);
Result runServeMix(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
