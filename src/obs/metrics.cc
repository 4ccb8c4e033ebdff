#include "obs/metrics.hh"

#include <algorithm>
#include <cctype>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace elag {
namespace obs {

namespace {

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto tail = [&](char c) {
        return head(c) || std::isdigit(static_cast<unsigned char>(c));
    };
    if (!head(name[0]))
        return false;
    return std::all_of(name.begin() + 1, name.end(), tail);
}

/** Canonical `k1="v1",k2="v2"` rendering (registration order). */
std::string
renderLabels(const Labels &labels)
{
    std::string out;
    for (const auto &kv : labels) {
        if (!out.empty())
            out += ',';
        out += kv.first + "=\"" + jsonEscape(kv.second) + "\"";
    }
    return out;
}

/** Flat sample name: `name` or `name{labels}`. */
std::string
flatName(const std::string &name, const std::string &labels)
{
    return labels.empty() ? name : name + "{" + labels + "}";
}

/** Same, with an extra label appended (histogram `le` series). */
std::string
flatNameWith(const std::string &name, const std::string &labels,
             const std::string &extra)
{
    std::string all =
        labels.empty() ? extra
                       : (extra.empty() ? labels : labels + "," + extra);
    return flatName(name, all);
}

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

} // anonymous namespace

Histogram::Histogram(size_t num_buckets, uint64_t bucket_width)
    : buckets_(num_buckets), width_(bucket_width ? bucket_width : 1)
{
    elag_assert(num_buckets > 0);
}

double
Histogram::mean() const
{
    uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

/**
 * One registered family: kind + help + children keyed by rendered
 * label string. Only the child map of its kind is populated.
 */
struct Registry::Family
{
    MetricKind kind;
    std::string help;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry &
Registry::process()
{
    static Registry registry;
    return registry;
}

Registry::Family &
Registry::family(const std::string &name, MetricKind kind,
                 const std::string &help)
{
    if (!validMetricName(name))
        panic("obs: invalid metric name '%s'", name.c_str());
    auto it = families.find(name);
    if (it == families.end()) {
        auto fam = std::make_unique<Family>();
        fam->kind = kind;
        fam->help = help;
        it = families.emplace(name, std::move(fam)).first;
    } else if (it->second->kind != kind) {
        panic("obs: metric '%s' registered as %s, requested as %s",
              name.c_str(), kindName(it->second->kind),
              kindName(kind));
    }
    return *it->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mu);
    Family &fam = family(name, MetricKind::Counter, help);
    auto &slot = fam.counters[renderLabels(labels)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    size_t num_buckets, uint64_t bucket_width,
                    const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mu);
    Family &fam = family(name, MetricKind::Histogram, help);
    auto &slot = fam.histograms[renderLabels(labels)];
    if (!slot)
        slot = std::make_unique<Histogram>(num_buckets, bucket_width);
    return *slot;
}

void
Registry::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu);
    w.beginObject();
    for (const auto &fkv : families) {
        const Family &fam = *fkv.second;
        for (const auto &ckv : fam.counters)
            w.field(flatName(fkv.first, ckv.first),
                    ckv.second->value());
        for (const auto &hkv : fam.histograms) {
            const Histogram &h = *hkv.second;
            w.key(flatName(fkv.first, hkv.first)).beginObject();
            w.field("count", h.count());
            w.field("sum", h.sum());
            w.field("mean", h.mean());
            w.field("bucket_width", h.bucketWidth());
            w.key("buckets").beginArray();
            for (size_t i = 0; i < h.numBuckets(); ++i)
                w.value(h.bucket(i));
            w.endArray();
            w.field("overflow", h.overflow());
            w.endObject();
        }
    }
    w.endObject();
}

std::string
Registry::prometheus() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    for (const auto &fkv : families) {
        const std::string &name = fkv.first;
        const Family &fam = *fkv.second;
        if (!fam.help.empty())
            out += "# HELP " + name + " " + fam.help + "\n";
        out += "# TYPE " + name + " " +
               std::string(kindName(fam.kind)) + "\n";
        for (const auto &ckv : fam.counters) {
            out += flatName(name, ckv.first) + " " +
                   std::to_string(ckv.second->value()) + "\n";
        }
        for (const auto &hkv : fam.histograms) {
            const Histogram &h = *hkv.second;
            uint64_t cumulative = 0;
            for (size_t i = 0; i < h.numBuckets(); ++i) {
                cumulative += h.bucket(i);
                uint64_t le = h.bucketWidth() * (i + 1);
                out += flatNameWith(name + "_bucket", hkv.first,
                                    "le=\"" + std::to_string(le) +
                                        "\"") +
                       " " + std::to_string(cumulative) + "\n";
            }
            cumulative += h.overflow();
            out += flatNameWith(name + "_bucket", hkv.first,
                                "le=\"+Inf\"") +
                   " " + std::to_string(cumulative) + "\n";
            out += flatName(name + "_sum", hkv.first) + " " +
                   std::to_string(h.sum()) + "\n";
            out += flatName(name + "_count", hkv.first) + " " +
                   std::to_string(h.count()) + "\n";
        }
    }
    return out;
}

void
Registry::writeCountersJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu);
    w.beginObject();
    for (const auto &fkv : families) {
        for (const auto &ckv : fkv.second->counters)
            w.field(flatName(fkv.first, ckv.first),
                    ckv.second->value());
    }
    w.endObject();
}

namespace {

/**
 * Parse one flat sample name back into (family, labels). The flat
 * grammar is exactly what renderLabels/flatName produce: optional
 * {k="v",...} where each value is a JSON string literal.
 */
bool
parseFlatName(const std::string &flat, std::string &name,
              Labels &labels)
{
    size_t brace = flat.find('{');
    if (brace == std::string::npos) {
        name = flat;
        return validMetricName(name);
    }
    if (flat.back() != '}')
        return false;
    name = flat.substr(0, brace);
    if (!validMetricName(name))
        return false;
    size_t p = brace + 1;
    const size_t end = flat.size() - 1;
    while (p < end) {
        size_t eq = flat.find('=', p);
        if (eq == std::string::npos)
            return false;
        std::string value;
        size_t q = jsonStringAt(flat, eq + 1, value);
        if (q == std::string::npos || q > end)
            return false;
        labels.emplace_back(flat.substr(p, eq - p), value);
        p = q;
        if (p < end) {
            if (flat[p] != ',')
                return false;
            ++p;
        }
    }
    return true;
}

} // anonymous namespace

size_t
Registry::restoreCounters(const std::string &raw_object)
{
    std::vector<JsonMember> members;
    if (!jsonMembers(raw_object, members))
        return 0;
    size_t restored = 0;
    for (const JsonMember &m : members) {
        uint64_t value = 0;
        std::string name;
        Labels labels;
        if (jsonUint(m.value, value) &&
            parseFlatName(m.key, name, labels)) {
            counter(name, "", labels).inc(value);
            ++restored;
        }
    }
    return restored;
}

namespace {

bool
validSampleLine(const std::string &line)
{
    // name
    size_t p = 0;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto tail = [&](char c) {
        return head(c) || std::isdigit(static_cast<unsigned char>(c));
    };
    if (p >= line.size() || !head(line[p]))
        return false;
    while (p < line.size() && tail(line[p]))
        ++p;
    // optional {labels}
    if (p < line.size() && line[p] == '{') {
        ++p;
        while (p < line.size() && line[p] != '}') {
            if (!head(line[p]))
                return false;
            while (p < line.size() && tail(line[p]))
                ++p;
            if (p >= line.size() || line[p] != '=')
                return false;
            ++p;
            if (p >= line.size() || line[p] != '"')
                return false;
            ++p;
            while (p < line.size() && line[p] != '"') {
                if (line[p] == '\\')
                    ++p;
                ++p;
            }
            if (p >= line.size())
                return false;
            ++p; // closing quote
            if (p < line.size() && line[p] == ',')
                ++p;
        }
        if (p >= line.size())
            return false;
        ++p; // closing brace
    }
    // single space, then a value
    if (p >= line.size() || line[p] != ' ')
        return false;
    ++p;
    std::string value = line.substr(p);
    if (value.empty() || value.find(' ') != std::string::npos)
        return false;
    if (value == "+Inf" || value == "-Inf" || value == "NaN")
        return true;
    // Integer or simple float, optional sign/exponent.
    size_t v = 0;
    if (value[v] == '+' || value[v] == '-')
        ++v;
    bool digits = false, dot = false, exp = false;
    for (; v < value.size(); ++v) {
        char c = value[v];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digits = true;
        } else if (c == '.' && !dot && !exp) {
            dot = true;
        } else if ((c == 'e' || c == 'E') && digits && !exp) {
            exp = true;
            if (v + 1 < value.size() &&
                (value[v + 1] == '+' || value[v + 1] == '-')) {
                ++v;
            }
            digits = false;
        } else {
            return false;
        }
    }
    return digits;
}

} // anonymous namespace

std::string
validatePrometheus(const std::string &text)
{
    if (!text.empty() && text.back() != '\n')
        return "exposition must end with a newline";
    size_t lineno = 0;
    for (const std::string &line : splitString(text, '\n')) {
        ++lineno;
        if (line.empty())
            continue; // blank separator lines are allowed
        if (line[0] == '#') {
            if (startsWith(line, "# HELP ") ||
                startsWith(line, "# TYPE ") || line == "# EOF") {
                continue;
            }
            return formatString("line %zu: malformed comment",
                                lineno);
        }
        if (!validSampleLine(line))
            return formatString("line %zu: not a 'name{labels} "
                                "value' sample: %s",
                                lineno, line.c_str());
    }
    return "";
}

} // namespace obs
} // namespace elag
