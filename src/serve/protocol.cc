#include "serve/protocol.hh"

#include <cstdint>
#include <vector>

#include "support/json.hh"

namespace elag {
namespace serve {

bool
isWorkVerb(const std::string &verb)
{
    return verb == "compile" || verb == "classify" ||
           verb == "simulate" || verb == "generate";
}

namespace {

/** Decode one request member into its field; unknown keys are ignored. */
bool
readRequestMember(const JsonMember &m, Request &request,
                  std::string &error)
{
    auto text = [&](std::string &out) {
        if (jsonString(m.value, out))
            return true;
        error = "member '" + m.key + "' must be a string";
        return false;
    };
    auto uint = [&](uint64_t &out) {
        if (jsonUint(m.value, out))
            return true;
        error = "member '" + m.key + "' must be an unsigned integer";
        return false;
    };
    auto uint32 = [&](uint32_t &out) {
        uint64_t wide = 0;
        if (!uint(wide))
            return false;
        if (wide > UINT32_MAX) {
            error = "member '" + m.key + "' exceeds 32 bits";
            return false;
        }
        out = static_cast<uint32_t>(wide);
        return true;
    };
    auto boolean = [&](bool &out) {
        if (jsonBool(m.value, out))
            return true;
        error = "member '" + m.key + "' must be a boolean";
        return false;
    };

    if (m.key == "verb")
        return text(request.verb);
    if (m.key == "id")
        return uint(request.id);
    if (m.key == "source")
        return text(request.source);
    if (m.key == "spec")
        return text(request.spec);
    if (m.key == "file")
        return text(request.file);
    if (m.key == "machine")
        return text(request.machine);
    if (m.key == "selection")
        return text(request.selection);
    if (m.key == "table")
        return uint32(request.table);
    if (m.key == "regs")
        return uint32(request.regs);
    if (m.key == "no_opt")
        return boolean(request.noOpt);
    if (m.key == "no_classify")
        return boolean(request.noClassify);
    if (m.key == "max_inst")
        return uint(request.maxInst);
    if (m.key == "deadline_ms")
        return uint(request.deadlineMs);
    if (m.key == "trace")
        return text(request.trace);
    if (m.key == "format")
        return text(request.format);
    return true;
}

} // anonymous namespace

bool
parseRequest(const std::string &doc, Request &request,
             std::string &error)
{
    std::vector<JsonMember> members;
    if (!jsonMembers(doc, members)) {
        error = jsonValid(doc) ? "request must be a JSON object"
                               : "request is not valid JSON";
        return false;
    }
    for (const JsonMember &m : members) {
        if (!readRequestMember(m, request, error))
            return false;
    }
    if (request.verb.empty()) {
        error = "missing required member 'verb'";
        return false;
    }
    return true;
}

std::string
buildRequestDoc(const Request &request)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("verb", request.verb);
    w.field("id", request.id);
    w.field("file", request.file);
    w.field("machine", request.machine);
    if (!request.selection.empty())
        w.field("selection", request.selection);
    if (request.table)
        w.field("table", request.table);
    if (request.regs)
        w.field("regs", request.regs);
    if (request.noOpt)
        w.field("no_opt", true);
    if (request.noClassify)
        w.field("no_classify", true);
    w.field("max_inst", request.maxInst);
    if (request.deadlineMs)
        w.field("deadline_ms", request.deadlineMs);
    if (!request.trace.empty())
        w.field("trace", request.trace);
    if (!request.format.empty())
        w.field("format", request.format);
    if (!request.spec.empty())
        w.field("spec", request.spec);
    if (!request.source.empty())
        w.field("source", request.source);
    w.endObject();
    return w.str();
}

std::string
okResponse(const Request &request, const std::string &result_json)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("ok", true);
    w.field("id", request.id);
    w.field("verb", request.verb);
    w.key("result").rawValue(result_json);
    w.endObject();
    return w.str();
}

std::string
errorResponse(const Request &request, const std::string &type,
              const std::string &message)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("ok", false);
    w.field("id", request.id);
    w.field("verb", request.verb);
    w.key("error").beginObject();
    w.field("type", type);
    w.field("message", message);
    w.endObject();
    w.endObject();
    return w.str();
}

bool
parseResponse(const std::string &doc, Response &response,
              std::string &error)
{
    std::vector<JsonMember> members;
    if (!jsonMembers(doc, members)) {
        error = "response is not a JSON object";
        return false;
    }
    bool has_ok = false, has_result = false;
    std::string error_block;
    for (JsonMember &m : members) {
        if (m.key == "ok") {
            has_ok = jsonBool(m.value, response.ok);
        } else if (m.key == "id") {
            jsonUint(m.value, response.id);
        } else if (m.key == "verb") {
            jsonString(m.value, response.verb);
        } else if (m.key == "result") {
            response.result = std::move(m.value);
            has_result = true;
        } else if (m.key == "error") {
            error_block = std::move(m.value);
        }
    }
    if (!has_ok) {
        error = "missing or non-boolean 'ok' member";
        return false;
    }
    if (response.ok) {
        if (!has_result) {
            error = "ok response without a 'result' member";
            return false;
        }
        return true;
    }

    std::vector<JsonMember> fields;
    if (!jsonMembers(error_block, fields)) {
        error = "error response without an 'error' object";
        return false;
    }
    for (const JsonMember &m : fields) {
        if (m.key == "type")
            jsonString(m.value, response.errorType);
        else if (m.key == "message")
            jsonString(m.value, response.errorMessage);
    }
    if (response.errorType.empty()) {
        error = "error block without a 'type' member";
        return false;
    }
    return true;
}

} // namespace serve
} // namespace elag
