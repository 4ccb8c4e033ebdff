/**
 * @file
 * elag_client — client and load generator for elagd.
 *
 * Single-shot mode sends one request and prints the result document
 * exactly as the server produced it (plus a trailing newline), so a
 * served `simulate` diffs clean against `elagc --json-stats=-` on
 * the same source:
 *
 *   elag_client --socket=/tmp/elagd.sock --verb=simulate \
 *               --source=prog.c
 *   elag_client --socket=S --verb=stats
 *   elag_client --socket=S --verb=metrics
 *   elag_client --socket=S --verb=metrics --format=prometheus
 *   elag_client --socket=S --verb=drain
 *
 * `--verb=metrics --format=prometheus` unwraps the envelope and
 * prints the text exposition body verbatim, ready for a scraper.
 * `--trace-out=FILE` records client-side request spans; requests
 * carry fresh trace IDs the server echoes into its own spans.
 *
 * Load-generation mode runs a closed loop — N client threads, each
 * with its own connection, issuing M requests back to back — and
 * reports throughput and latency quantiles:
 *
 *   elag_client --socket=S --source=prog.c --clients=8 --requests=32
 *   elag_client ... --json          machine-readable loadgen report
 *
 * Against a sharded elagd, --retries=N (default 4 attempts) rides
 * out worker deaths and supervisor restarts: broken connections are
 * retried on a fresh one with jittered exponential backoff, and the
 * loadgen report counts the absorbed `retries` separately from real
 * failures.
 *
 * Exit codes: 0 success, 1 request failed (fatal / bad_request /
 * unknown_verb / quarantined), 2 usage, 69 rejected (overloaded /
 * shutting_down / unavailable), 70 server panic or shard_failed,
 * 75 deadline timeout.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/span.hh"
#include "serve/client.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace elag;

namespace {

struct Options
{
    std::string socket;
    uint16_t tcpPort = 0;
    std::string verb = "simulate";
    std::string source; ///< path to the mini-C source file
    std::string spec;   ///< path to a scenario spec (generate)
    uint32_t clients = 0;
    uint32_t requests = 1;
    /** Total attempts per call; 1 disables reconnect-retry. */
    uint32_t retries = 4;
    bool json = false;
    bool quiet = false;
    std::string traceOut;
    serve::Request request;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: elag_client (--socket=PATH | --tcp-port=N)\n"
        "                   [--verb=compile|classify|simulate|"
        "generate|stats|health|metrics|drain]\n"
        "                   [--source=FILE] [--spec=FILE] "
        "[--machine=baseline|proposed]\n"
        "                   [--selection=compiler|ev|all-predict|"
        "all-early]\n"
        "                   [--table=N] [--regs=N] [--no-opt]\n"
        "                   [--no-classify] [--max-inst=N]\n"
        "                   [--deadline-ms=N] [--format=json|"
        "prometheus|source]\n"
        "                   [--clients=N] [--requests=M] [--json]\n"
        "                   [--retries=N]\n"
        "                   [--trace-out=FILE] [--quiet]\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (startsWith(arg, "--socket=")) {
            opts.socket = value("--socket=");
        } else if (startsWith(arg, "--tcp-port=")) {
            uint32_t port;
            if (!parseNumericFlag("elag_client", arg, "--tcp-port=", port))
                return false;
            if (port == 0 || port > 65535) {
                std::fprintf(stderr,
                             "elag_client: --tcp-port out of "
                             "range\n");
                return false;
            }
            opts.tcpPort = static_cast<uint16_t>(port);
        } else if (startsWith(arg, "--verb=")) {
            opts.verb = value("--verb=");
        } else if (startsWith(arg, "--source=")) {
            opts.source = value("--source=");
        } else if (startsWith(arg, "--spec=")) {
            opts.spec = value("--spec=");
        } else if (startsWith(arg, "--machine=")) {
            opts.request.machine = value("--machine=");
        } else if (startsWith(arg, "--selection=")) {
            opts.request.selection = value("--selection=");
        } else if (startsWith(arg, "--table=")) {
            if (!parseNumericFlag("elag_client", arg, "--table=",
                                  opts.request.table))
                return false;
        } else if (startsWith(arg, "--regs=")) {
            if (!parseNumericFlag("elag_client", arg, "--regs=",
                                  opts.request.regs))
                return false;
        } else if (arg == "--no-opt") {
            opts.request.noOpt = true;
        } else if (arg == "--no-classify") {
            opts.request.noClassify = true;
        } else if (startsWith(arg, "--max-inst=")) {
            if (!parseNumericFlag("elag_client", arg, "--max-inst=",
                                  opts.request.maxInst))
                return false;
        } else if (startsWith(arg, "--deadline-ms=")) {
            if (!parseNumericFlag("elag_client", arg, "--deadline-ms=",
                                  opts.request.deadlineMs))
                return false;
        } else if (startsWith(arg, "--clients=")) {
            if (!parseNumericFlag("elag_client", arg, "--clients=",
                                  opts.clients))
                return false;
        } else if (startsWith(arg, "--requests=")) {
            if (!parseNumericFlag("elag_client", arg, "--requests=",
                                  opts.requests))
                return false;
        } else if (startsWith(arg, "--retries=")) {
            if (!parseNumericFlag("elag_client", arg, "--retries=",
                                  opts.retries))
                return false;
            if (opts.retries == 0) {
                std::fprintf(stderr,
                             "elag_client: --retries must be at "
                             "least 1\n");
                return false;
            }
        } else if (arg == "--json") {
            opts.json = true;
        } else if (startsWith(arg, "--format=")) {
            opts.request.format = value("--format=");
        } else if (startsWith(arg, "--trace-out=")) {
            opts.traceOut = value("--trace-out=");
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else {
            std::fprintf(stderr,
                         "elag_client: unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (opts.socket.empty() && opts.tcpPort == 0) {
        std::fprintf(stderr,
                     "elag_client: --socket=PATH or --tcp-port=N "
                     "is required\n");
        return false;
    }
    if (opts.verb == "generate") {
        if (opts.spec.empty()) {
            std::fprintf(stderr,
                         "elag_client: verb 'generate' requires "
                         "--spec=FILE\n");
            return false;
        }
    } else if (serve::isWorkVerb(opts.verb) && opts.source.empty()) {
        std::fprintf(stderr,
                     "elag_client: verb '%s' requires "
                     "--source=FILE\n",
                     opts.verb.c_str());
        return false;
    }
    if (opts.clients && !serve::isWorkVerb(opts.verb)) {
        std::fprintf(stderr,
                     "elag_client: --clients needs a work verb "
                     "(compile/classify/simulate/generate)\n");
        return false;
    }
    return true;
}

/** Map a protocol error type onto this tool's exit codes. */
int
errorExitCode(const std::string &type)
{
    if (type == serve::errtype::Overloaded ||
        type == serve::errtype::ShuttingDown ||
        type == serve::errtype::Unavailable) {
        return 69; // EX_UNAVAILABLE
    }
    if (type == serve::errtype::Timeout)
        return 75; // matches elagc's watchdog exit
    if (type == serve::errtype::Panic ||
        type == serve::errtype::ShardFailed) {
        return 70; // matches elagc's invariant-violation exit
    }
    return 1; // fatal / bad_request / unknown_verb / quarantined
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    if (opts.quiet)
        setQuiet(true);
    obs::SpanTracer::process().setProcessLabel("elag_client");
    if (!opts.traceOut.empty())
        obs::SpanTracer::process().enable(opts.traceOut);
    obs::SpanTracer::process().applyEnvironment();
    struct TraceFlusher
    {
        ~TraceFlusher() { obs::SpanTracer::process().flush(); }
    } traceFlusher;

    opts.request.verb = opts.verb;
    if (!opts.source.empty()) {
        std::ifstream in(opts.source);
        if (!in) {
            std::fprintf(stderr, "elag_client: cannot open '%s'\n",
                         opts.source.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        opts.request.source = text.str();
        // The server echoes this label into reports, matching what
        // elagc prints for the same invocation path.
        opts.request.file = opts.source;
    }
    if (!opts.spec.empty()) {
        std::ifstream in(opts.spec);
        if (!in) {
            std::fprintf(stderr, "elag_client: cannot open '%s'\n",
                         opts.spec.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        opts.request.spec = trimString(text.str());
        opts.request.file = opts.spec;
    }

    try {
        if (opts.clients) {
            serve::LoadGenConfig config;
            config.socketPath = opts.socket;
            config.tcpPort = opts.tcpPort;
            config.clients = opts.clients;
            config.requests = opts.requests;
            config.request = opts.request;
            config.retry.maxAttempts = opts.retries;
            serve::LoadGenReport report = serve::runLoadGen(config);
            if (opts.json) {
                JsonWriter w;
                report.writeJson(w);
                std::printf("%s\n", w.str().c_str());
            } else {
                std::fputs(report.text().c_str(), stdout);
            }
            return report.transportErrors ? 1 : 0;
        }

        serve::RetryConfig retry;
        retry.maxAttempts = opts.retries;
        serve::ReconnectingClient client(opts.socket, opts.tcpPort,
                                         retry);
        opts.request.id = 1;
        if (opts.request.trace.empty())
            opts.request.trace = obs::newTraceId();
        serve::Response response = client.call(opts.request);
        if (!response.ok) {
            std::fprintf(stderr, "elag_client: %s: %s\n",
                         response.errorType.c_str(),
                         response.errorMessage.c_str());
            return errorExitCode(response.errorType);
        }
        // A Prometheus metrics result arrives wrapped in a JSON
        // envelope; print the body verbatim so the output pipes
        // straight into a scraper or promtool.
        std::string body;
        if (opts.verb == "metrics" &&
            opts.request.format == "prometheus" &&
            jsonExtractString(response.result, "body", body)) {
            std::fputs(body.c_str(), stdout);
            return 0;
        }
        // Likewise, --format=source unwraps a generate result down
        // to the program text, byte-comparable against elag_workgen.
        if (opts.verb == "generate" &&
            opts.request.format == "source" &&
            jsonExtractString(response.result, "source", body)) {
            std::fputs(body.c_str(), stdout);
            return 0;
        }
        std::fputs(response.result.c_str(), stdout);
        std::fputc('\n', stdout);
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elag_client: %s\n", e.what());
        return 1;
    }
}
