/**
 * @file
 * The elagd request/response protocol.
 *
 * One frame carries one flat JSON document. Requests:
 *
 *     {"verb": "simulate", "id": 7, "file": "loop.c",
 *      "machine": "proposed", "max_inst": 500000000,
 *      "deadline_ms": 2000, "source": "int main() { ... }"}
 *
 * Verbs: `compile`, `classify`, `simulate` (work verbs that carry
 * mini-C source), `generate` (a work verb carrying a scenario-spec
 * document in `spec` instead of source), and `stats`, `health`,
 * `metrics`, `drain` (control verbs the server answers itself,
 * bypassing admission control so they work under overload). Members
 * may come in any order: requests and responses are read as whole
 * JSON objects by support/json's one reader, so protocol-looking text
 * inside a shipped payload is only ever string content.
 *
 * Requests may carry a `trace` member: an opaque correlation ID the
 * client mints (obs::newTraceId) and both sides attach to their
 * spans, so one request can be lined up across the client's and the
 * server's trace files. `metrics` requests may carry
 * `format: "prometheus"` to get the text exposition instead of JSON.
 *
 * Responses envelope either a result or a typed error:
 *
 *     {"ok": true,  "id": 7, "verb": "simulate", "result": {...}}
 *     {"ok": false, "id": 7, "verb": "simulate",
 *      "error": {"type": "overloaded", "message": "..."}}
 *
 * The result of `simulate` is spliced in verbatim from
 * sim::statsReportJson, so clients can recover a document
 * byte-identical to `elagc --json-stats` with jsonExtractRaw.
 */

#ifndef ELAG_SERVE_PROTOCOL_HH
#define ELAG_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace elag {
namespace serve {

/** Typed error identifiers carried in error responses. */
namespace errtype {

constexpr const char *BadRequest = "bad_request";
constexpr const char *UnknownVerb = "unknown_verb";
constexpr const char *Overloaded = "overloaded";
constexpr const char *ShuttingDown = "shutting_down";
constexpr const char *Timeout = "timeout";
constexpr const char *Fatal = "fatal";
constexpr const char *Panic = "panic";
/** The *guest* program faulted (divide by zero, wild PC, ...). */
constexpr const char *GuestTrap = "guest_trap";
/** Content hash crashed workers too often; rejected pre-routing. */
constexpr const char *Quarantined = "quarantined";
/** The request crashed its worker and the failover retries too. */
constexpr const char *ShardFailed = "shard_failed";
/** No live shard workers to route to. */
constexpr const char *Unavailable = "unavailable";

} // namespace errtype

/** One parsed request. Defaults mirror elagc's flag defaults. */
struct Request
{
    std::string verb;
    uint64_t id = 0;
    /** mini-C program text (work verbs). */
    std::string source;
    /** Scenario-spec JSON document text (`generate` verb). */
    std::string spec;
    /** Label echoed into reports (elagc prints its input path). */
    std::string file = "<request>";
    std::string machine = "proposed";
    std::string selection;
    uint32_t table = 0;
    uint32_t regs = 0;
    bool noOpt = false;
    bool noClassify = false;
    uint64_t maxInst = 500'000'000;
    /** Wall-clock budget; 0 uses the server default (may be none). */
    uint64_t deadlineMs = 0;
    /** Correlation ID propagated into client- and server-side spans. */
    std::string trace;
    /** Exposition format for `metrics` ("" = JSON, "prometheus"). */
    std::string format;
};

/** @return true if @p verb computes on request-supplied source. */
bool isWorkVerb(const std::string &verb);

/**
 * Parse one request document. @return false (with @p error set) on
 * invalid JSON, a non-object document, a missing/empty verb, or a
 * member of the wrong type (a non-integer where an unsigned integer
 * is wanted) or out of range.
 */
bool parseRequest(const std::string &doc, Request &request,
                  std::string &error);

/** Serialize @p request as a compact document. */
std::string buildRequestDoc(const Request &request);

/** Success envelope with @p result_json spliced in verbatim. */
std::string okResponse(const Request &request,
                       const std::string &result_json);

/** Error envelope with a typed error block. */
std::string errorResponse(const Request &request,
                          const std::string &type,
                          const std::string &message);

/** One parsed response envelope. */
struct Response
{
    bool ok = false;
    uint64_t id = 0;
    std::string verb;
    /** Raw JSON of the result member (exactly as the server sent). */
    std::string result;
    std::string errorType;
    std::string errorMessage;
};

/** Parse a response envelope. @return false on malformed input. */
bool parseResponse(const std::string &doc, Response &response,
                   std::string &error);

} // namespace serve
} // namespace elag

#endif // ELAG_SERVE_PROTOCOL_HH
