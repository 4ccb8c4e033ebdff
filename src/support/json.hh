/**
 * @file
 * The repository's JSON writer and its one JSON reader.
 *
 * JsonWriter is a push-style serializer: begin/end nesting calls plus
 * typed value calls, with commas and indentation handled internally.
 * It covers exactly what the exporters need (objects, arrays,
 * strings, numbers, booleans, null) with no external dependency.
 *
 * Every document the program reads -- requests, response envelopes,
 * cache records, counter snapshots, scenario specs, manifest lines --
 * goes through one recursive-descent grammar walk. jsonMembers and
 * jsonElements split a valid object or array into the exact text of
 * its values; the typed decoders turn one value's text into a string,
 * unsigned integer, number or boolean. Strings decode the standard
 * escapes; a \u escape above 0x7f decodes to '?'. Nesting deeper
 * than 256 levels is rejected.
 */

#ifndef ELAG_SUPPORT_JSON_HH
#define ELAG_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace elag {

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/** @return true if @p text is one complete, valid JSON value. */
bool jsonValid(const std::string &text);

/** One object member: its decoded key and its value's exact text. */
struct JsonMember
{
    std::string key;
    std::string value;
};

/**
 * The top-level members of an object, in document order, duplicates
 * included. @return false unless @p text is one valid JSON object
 * (surrounding whitespace allowed).
 */
bool jsonMembers(const std::string &text, std::vector<JsonMember> &out);

/**
 * The exact text of each item of an array, in order. @return false
 * unless @p text is one valid JSON array.
 */
bool jsonElements(const std::string &text, std::vector<std::string> &out);

/**
 * Typed decoders for one value's exact text, as jsonMembers and
 * jsonElements return it (no surrounding whitespace). jsonUint
 * accepts only an integer with no sign, fraction or exponent that
 * fits 64 bits; jsonNumber any finite JSON number. @return true and
 * set @p out on success; false (leaving @p out untouched) otherwise.
 */
bool jsonString(const std::string &value, std::string &out);
bool jsonUint(const std::string &value, uint64_t &out);
bool jsonNumber(const std::string &value, double &out);
bool jsonBool(const std::string &value, bool &out);

/**
 * Decode the JSON string literal that starts at offset @p pos of
 * @p text, for literals embedded in another grammar (a metric's
 * `name{k="v"}` flat name). @return the offset just past its closing
 * quote, or std::string::npos (leaving @p out untouched) if no valid
 * literal starts there.
 */
size_t jsonStringAt(const std::string &text, size_t pos,
                    std::string &out);

/**
 * Pull one member out of a valid JSON document: the first member
 * named @p key, in document order, at any depth. For consumers that
 * want one field of a document they do not otherwise walk (manifest
 * lines, stats documents).
 *
 * jsonExtractRaw returns the value's exact text, so a sub-document
 * spliced in with JsonWriter::rawValue() is recovered verbatim;
 * jsonExtractString and jsonExtractUint decode it as jsonString and
 * jsonUint do.
 *
 * @return true and set @p out on success; false if @p doc is not
 * valid JSON, has no such member, or the value has the wrong type.
 */
bool jsonExtractString(const std::string &doc, const std::string &key,
                       std::string &out);
bool jsonExtractUint(const std::string &doc, const std::string &key,
                     uint64_t &out);
bool jsonExtractRaw(const std::string &doc, const std::string &key,
                    std::string &out);

/**
 * Incremental JSON document writer.
 *
 * Usage:
 *     JsonWriter w;
 *     w.beginObject();
 *     w.field("cycles", stats.cycles);
 *     w.key("ipc").value(stats.ipc());
 *     w.endObject();
 *     std::string doc = w.str();
 *
 * Misuse (a value with no pending key inside an object, unbalanced
 * end calls, str() on an unfinished document) reports through
 * panic().
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 emits compact JSON */
    explicit JsonWriter(int indent = 2);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object member key; the next call must emit its value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(uint32_t v) { return value(uint64_t{v}); }
    JsonWriter &value(int v) { return value(int64_t{v}); }
    JsonWriter &value(bool v);
    JsonWriter &nullValue();

    /**
     * Splice a pre-rendered JSON document in as a value, verbatim.
     * The caller guarantees @p json is one complete valid JSON value;
     * its internal indentation is preserved untouched, so the exact
     * bytes can later be recovered with jsonExtractRaw(). Used to
     * embed an independently generated report inside a response
     * envelope without re-serializing it.
     */
    JsonWriter &rawValue(const std::string &json);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** The finished document; panics if nesting is still open. */
    std::string str() const;

  private:
    struct Level
    {
        bool object = false;
        bool first = true;
    };

    /** Emit separators/indent before a value or key. */
    void prepare(bool is_key);
    void newline();

    std::string out;
    std::vector<Level> stack;
    int indentWidth;
    bool keyPending = false;
    bool done = false;
};

} // namespace elag

#endif // ELAG_SUPPORT_JSON_HH
