#include "serve/router.hh"

#include "ckpt/checkpoint.hh"
#include "obs/span.hh"
#include "serve/routing.hh"
#include "sim/ckpt_run.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "workloads/synthetic/generator.hh"

namespace elag {
namespace serve {

namespace {

sim::CompiledProgram
compileRequest(const Request &request)
{
    if (request.source.empty())
        fatal("verb '%s' requires a 'source' member",
              request.verb.c_str());
    sim::CompileOptions copts;
    if (request.noOpt)
        copts.opt = opt::OptConfig::noneEnabled();
    copts.runClassifier = !request.noClassify;
    return sim::compile(request.source, copts);
}

} // anonymous namespace

pipeline::MachineConfig
Router::machineFor(const Request &request)
{
    return sim::machineConfig(request.machine, request.selection,
                              request.table, request.regs);
}

std::string
Router::checkpointedSimulate(const Request &request,
                             const sim::CompiledProgram &prog,
                             const sim::Watchdog &watchdog) const
{
    // Keyed by the same content hash as the persistent tier, so the
    // retried request a supervisor re-routes after a worker death
    // lands on the snapshot its predecessor left behind. Bypasses
    // the in-memory RunCache: a checkpointed run owns its telemetry
    // end to end so the resumed document stays byte-identical.
    sim::CkptPolicy policy;
    policy.path = formatString(
        "%s/req-%016llx.ckpt", cfg.checkpointDir.c_str(),
        static_cast<unsigned long long>(persistKey(request)));
    policy.everyRetires = cfg.checkpointEvery;
    std::string resume =
        ckpt::fileExists(policy.path) ? policy.path : std::string();

    pipeline::LoadTelemetry telemetry;
    sim::CkptStatsOutcome out;
    try {
        out = sim::runTimedCheckpointed(
            prog, machineFor(request),
            pipeline::MachineConfig::baseline(), request.maxInst,
            &telemetry, nullptr, nullptr, watchdog, policy, resume);
    } catch (const ckpt::CkptError &e) {
        // A snapshot this worker cannot use (torn, corrupt, other
        // run) is never fatal to the request: re-run clean and let
        // the fresh snapshots overwrite it.
        warn("unusable request checkpoint '%s' (%s: %s); re-running "
             "clean",
             policy.path.c_str(), ckpt::name(e.kind()), e.what());
        telemetry.reset();
        out = sim::runTimedCheckpointed(
            prog, machineFor(request),
            pipeline::MachineConfig::baseline(), request.maxInst,
            &telemetry, nullptr, nullptr, watchdog, policy);
    }
    if (out.resumed)
        inform("simulate request resumed from '%s'",
               policy.path.c_str());
    return sim::statsReportJson(request.file, request.machine,
                                request.selection, prog, out.base,
                                out.timed, telemetry);
}

std::string
Router::execute(const Request &request) const
{
    // The durable tier answers before anything is compiled: simulate
    // and generate results are pure functions of the request content,
    // so a persisted document (stored post-render) is the byte-exact
    // answer, at the cost of one disk read.
    uint64_t persist_key = 0;
    bool cacheable = request.verb == "simulate" ||
                     request.verb == "generate";
    if (cfg.persist && cacheable) {
        persist_key = persistKey(request);
        std::string doc;
        if (cfg.persist->lookup(persist_key, doc))
            return doc;
    }

    if (request.verb == "generate")
        return generate(request, persist_key);

    sim::CompiledProgram prog = compileRequest(request);

    if (request.verb == "compile") {
        JsonWriter w;
        w.beginObject();
        sim::programJson(w, request.file, prog);
        w.endObject();
        return w.str();
    }

    if (request.verb == "classify") {
        JsonWriter w;
        w.beginObject();
        sim::programJson(w, request.file, prog);
        w.key("loads").beginArray();
        for (const auto &entry : prog.specOf.entries()) {
            w.beginObject();
            w.field("load_id", entry.first);
            w.field("spec", isa::loadSpecName(entry.second));
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

    if (request.verb == "simulate") {
        obs::Span span("simulate", "serve");
        if (!request.trace.empty())
            span.arg("trace_id", request.trace);
        sim::Watchdog watchdog;
        watchdog.maxWallMs = request.deadlineMs
                                 ? request.deadlineMs
                                 : cfg.defaultDeadlineMs;
        std::string doc;
        if (!cfg.checkpointDir.empty()) {
            doc = checkpointedSimulate(request, prog, watchdog);
        } else {
            auto &cache = sim::RunCache::instance();
            // Identical structure to elagc --json-stats: a clean
            // baseline run plus the configured machine observed by
            // load telemetry, both shareable across requests via the
            // cache.
            sim::TimedResult base =
                cache.run(prog, pipeline::MachineConfig::baseline(),
                          request.maxInst, watchdog);
            sim::RunCache::Report report = cache.runReport(
                prog, machineFor(request), request.maxInst, watchdog);
            doc = sim::statsReportJson(request.file, request.machine,
                                       request.selection, prog, base,
                                       report.timed,
                                       report.telemetry);
        }
        if (cfg.persist)
            cfg.persist->append(persist_key, doc);
        return doc;
    }

    fatal("unhandled work verb '%s'", request.verb.c_str());
}

std::string
Router::generate(const Request &request, uint64_t persist_key) const
{
    if (request.spec.empty())
        fatal("verb 'generate' requires a 'spec' member");

    workloads::synthetic::ScenarioSpec spec;
    std::string error;
    if (!workloads::synthetic::parseScenarioSpec(request.spec, spec,
                                                 error))
        fatal("bad scenario spec: %s", error.c_str());

    obs::Span span("generate", "serve");
    if (!request.trace.empty())
        span.arg("trace_id", request.trace);
    workloads::synthetic::GeneratedScenario gen =
        workloads::synthetic::generateScenario(spec);

    JsonWriter w(0);
    w.beginObject();
    w.field("name", gen.name);
    w.field("family", workloads::synthetic::name(spec.family));
    w.field("content_hash", gen.contentHash);
    w.key("spec").rawValue(spec.toJson());
    w.field("source", gen.source);
    w.endObject();
    std::string doc = w.str();
    if (cfg.persist)
        cfg.persist->append(persist_key, doc);
    return doc;
}

} // namespace serve
} // namespace elag
