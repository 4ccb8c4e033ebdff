/**
 * @file
 * Observer hook interface for the timing model.
 *
 * The pipeline publishes its load-speculation events — speculative
 * dispatches, verification verdicts, forwards — to attached
 * observers, so tracing, per-PC telemetry and future tooling can
 * watch a run without further edits to the core model. Callbacks
 * fire in retire (program) order; with no observers attached the
 * cost is one empty-vector check per load.
 */

#ifndef ELAG_PIPELINE_OBSERVER_HH
#define ELAG_PIPELINE_OBSERVER_HH

#include <cstddef>
#include <cstdint>

namespace elag {
namespace pipeline {

struct RetiredInst;

/** The path a dynamic load was routed to (Section 3's three ways). */
enum class LoadPath : uint8_t
{
    Normal,    ///< ld_n timing: EA in EXE, D$ in MEM
    Predict,   ///< ld_p: PC-indexed address-prediction table
    EarlyCalc, ///< ld_e: early calculation through R_addr
};

/**
 * Per-dynamic-load speculation verdict. One of these is decided for
 * every executed load; values past Forwarded give the reason the
 * speculation was skipped or discarded, mirroring the failure
 * counters of SpecCounters.
 */
enum class SpecOutcome : uint8_t
{
    NotAttempted, ///< routed to the normal path, nothing to verify
    Forwarded,    ///< speculation succeeded, latency reduced
    NoPrediction, ///< table miss / entry not confident
    NotBound,     ///< R_addr held a different register
    PortDenied,   ///< no free data-cache port in the early stage
    RegInterlock, ///< base register not ready at ID1
    MemInterlock, ///< conflicting in-flight store
    WrongAddress, ///< predicted != computed
    CacheMiss,    ///< speculative access missed the D$
};

constexpr size_t NumSpecOutcomes = 9;

/** Stable lowercase name, e.g. for trace lines and JSON keys. */
constexpr const char *
name(LoadPath path)
{
    switch (path) {
      case LoadPath::Normal:
        return "normal";
      case LoadPath::Predict:
        return "predict";
      case LoadPath::EarlyCalc:
        return "early_calc";
    }
    return "?";
}

/** Stable name for a speculation outcome. */
constexpr const char *
name(SpecOutcome outcome)
{
    switch (outcome) {
      case SpecOutcome::NotAttempted:
        return "not_attempted";
      case SpecOutcome::Forwarded:
        return "forwarded";
      case SpecOutcome::NoPrediction:
        return "no_prediction";
      case SpecOutcome::NotBound:
        return "not_bound";
      case SpecOutcome::PortDenied:
        return "port_denied";
      case SpecOutcome::RegInterlock:
        return "reg_interlock";
      case SpecOutcome::MemInterlock:
        return "mem_interlock";
      case SpecOutcome::WrongAddress:
        return "wrong_address";
      case SpecOutcome::CacheMiss:
        return "cache_miss";
    }
    return "?";
}

/**
 * The four Section-3.2 safety conditions as the hardware evaluated
 * them for one dispatched speculative access. Published alongside
 * the verdict so lockstep checkers (verify::InvariantChecker) can
 * prove the forwarding decision followed from the measurements:
 * a Forwarded verdict is legal only when every field holds.
 */
struct VerifyConditions
{
    /** A data-cache port was allocated in the early stage. */
    bool portAllocated = false;
    /** Speculative address equals the computed effective address. */
    bool addrMatch = false;
    /** The speculative access hit the data cache. */
    bool cacheHit = false;
    /** No address-register interlock at the early stage. */
    bool regInterlockFree = false;
    /** No conflicting in-flight store (Mem_Interlock clear). */
    bool memInterlockFree = false;

    bool
    allHold() const
    {
        return portAllocated && addrMatch && cacheHit &&
               regInterlockFree && memInterlockFree;
    }
};

/**
 * Attachable pipeline event sink. Default implementations do
 * nothing, so observers override only the events they need.
 */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * A speculative D-cache access was dispatched for @p ri in the
     * early stage (ID1 for ld_e, ID2 for ld_p) at @p cycle using
     * address @p specAddr.
     */
    virtual void
    onSpecDispatch(const RetiredInst &ri, LoadPath path,
                   uint32_t specAddr, uint64_t cycle)
    {
        (void)ri; (void)path; (void)specAddr; (void)cycle;
    }

    /**
     * The speculation verdict for a load, fired once per executed
     * load at its EXE cycle (including NotAttempted and the skip
     * reasons, so outcome counts partition executed loads).
     */
    virtual void
    onVerify(const RetiredInst &ri, LoadPath path, SpecOutcome outcome,
             uint64_t exeCycle)
    {
        (void)ri; (void)path; (void)outcome; (void)exeCycle;
    }

    /**
     * The measured safety conditions behind a dispatched
     * speculation's verdict, fired immediately before the matching
     * onVerify whenever a speculative access was dispatched (i.e.
     * once per speculated load, never for skipped speculation).
     */
    virtual void
    onVerifyConditions(const RetiredInst &ri, LoadPath path,
                       SpecOutcome outcome,
                       const VerifyConditions &conditions,
                       uint64_t exeCycle)
    {
        (void)ri; (void)path; (void)outcome; (void)conditions;
        (void)exeCycle;
    }

    /**
     * A successful speculation forwarded its value; @p latency is
     * the effective load-use latency (0 for ld_e base+offset, 1
     * otherwise) and @p readyCycle when the dest register is ready.
     */
    virtual void
    onForward(const RetiredInst &ri, LoadPath path, int latency,
              uint64_t readyCycle)
    {
        (void)ri; (void)path; (void)latency; (void)readyCycle;
    }
};

} // namespace pipeline
} // namespace elag

#endif // ELAG_PIPELINE_OBSERVER_HH
