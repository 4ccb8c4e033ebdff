/**
 * @file
 * Per-PC load telemetry.
 *
 * LoadTelemetry is an Observer that aggregates every load's
 * speculation verdicts by static load site (PC): executed /
 * speculated / forwarded counts plus the full outcome breakdown, so
 * reports can show each site's forwarding rate and dominant failure
 * reason and cross-reference them against the compiler's static
 * classification (tools/elagc --load-report).
 */

#ifndef ELAG_PIPELINE_TELEMETRY_HH
#define ELAG_PIPELINE_TELEMETRY_HH

#include <cstdint>
#include <map>

#include "pipeline/observer.hh"

namespace elag {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace pipeline {

/** Dynamic record for one static load site. */
struct LoadRecord
{
    /** Path the site was last routed to. */
    LoadPath path = LoadPath::Normal;
    uint64_t executed = 0;
    uint64_t speculated = 0;
    /** Verdict counts, indexed by SpecOutcome. */
    uint64_t outcomes[NumSpecOutcomes] = {};

    uint64_t
    count(SpecOutcome outcome) const
    {
        return outcomes[static_cast<size_t>(outcome)];
    }

    uint64_t forwarded() const { return count(SpecOutcome::Forwarded); }

    /** Forwards per executed load. */
    double
    forwardRate() const
    {
        return executed == 0 ? 0.0
                             : static_cast<double>(forwarded()) /
                                   static_cast<double>(executed);
    }

    /**
     * The most common non-forwarded outcome (the site's dominant
     * failure reason), or Forwarded when the site never failed.
     */
    SpecOutcome dominantFailure() const;
};

/** Observer building the per-PC load table. */
class LoadTelemetry : public Observer
{
  public:
    void onSpecDispatch(const RetiredInst &ri, LoadPath path,
                        uint32_t specAddr, uint64_t cycle) override;
    void onVerify(const RetiredInst &ri, LoadPath path,
                  SpecOutcome outcome, uint64_t exeCycle) override;

    /** The table, keyed by load PC. */
    const std::map<uint32_t, LoadRecord> &loads() const
    {
        return loads_;
    }

    /** Total executed loads across all sites (tests). */
    uint64_t totalExecuted() const;

    void reset() { loads_.clear(); }

    /**
     * Checkpoint the full per-PC table so a resumed run's
     * --load-report matches an uninterrupted run's exactly.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    std::map<uint32_t, LoadRecord> loads_;
};

} // namespace pipeline
} // namespace elag

#endif // ELAG_PIPELINE_TELEMETRY_HH
