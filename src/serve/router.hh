/**
 * @file
 * Work-verb execution for the serving daemon.
 *
 * The Router turns an admitted request into its result document:
 * compile the shipped mini-C source, and for `simulate` run baseline
 * + configured machine through the shared, bounded sim::RunCache —
 * so repeated workloads across requests (and across clients) are
 * served from cache. Per-request wall-clock deadlines ride the
 * existing sim::Watchdog / SimTimeoutError path.
 *
 * Errors propagate as the existing exception taxonomy: FatalError
 * (bad program or configuration), SimTimeoutError (deadline), and
 * PanicError (model bug); the server maps them onto typed protocol
 * errors.
 */

#ifndef ELAG_SERVE_ROUTER_HH
#define ELAG_SERVE_ROUTER_HH

#include <cstdint>
#include <string>

#include "cache/persistent_store.hh"
#include "pipeline/config.hh"
#include "serve/protocol.hh"

namespace elag {

namespace sim {
struct CompiledProgram;
struct Watchdog;
} // namespace sim

namespace serve {

/** Router policy knobs (from elagd flags). */
struct RouterConfig
{
    /** Deadline applied when a request carries none; 0 = unlimited. */
    uint64_t defaultDeadlineMs = 0;
    /**
     * Durable simulate-result cache (not owned); null disables
     * persistence. Hits return the stored rendered stats document —
     * byte-identical to `elagc --json-stats` by construction — and
     * skip compilation and simulation entirely.
     */
    cache::PersistentStore *persist = nullptr;
    /**
     * Durable mid-request checkpoints for simulate work: when set,
     * each simulate run snapshots to DIR/req-<key>.ckpt (keyed by
     * the same content hash as the persistent tier) and a restarted
     * worker handed the same request resumes from the last snapshot
     * instead of replaying the whole interval. Empty disables.
     */
    std::string checkpointDir;
    /** Retires between request snapshots (0 = the 5M default). */
    uint64_t checkpointEvery = 0;
};

class Router
{
  public:
    explicit Router(const RouterConfig &config = {}) : cfg(config) {}

    /**
     * Execute one work verb and return its result JSON document.
     * Throws FatalError / SimTimeoutError / PanicError on failure;
     * the caller owns mapping those to protocol errors.
     */
    std::string execute(const Request &request) const;

    /**
     * Machine configuration for a request: sim::machineConfig, the
     * same function elagc uses for --machine/--table/--regs/
     * --selection, so a served simulate matches the single-shot CLI
     * byte for byte. Throws FatalError on an unknown selection
     * policy.
     */
    static pipeline::MachineConfig machineFor(const Request &request);

  private:
    /**
     * Simulate with durable mid-run snapshots (checkpointDir set):
     * resumes a predecessor worker's snapshot when one exists, falls
     * back to a clean run on any unusable snapshot.
     */
    std::string checkpointedSimulate(const Request &request,
                                     const sim::CompiledProgram &prog,
                                     const sim::Watchdog &watchdog)
        const;

    /**
     * `generate`: spec -> rendered scenario document, appended to the
     * durable tier under @p persist_key when one is configured.
     */
    std::string generate(const Request &request,
                         uint64_t persist_key) const;

    RouterConfig cfg;
};

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_ROUTER_HH
