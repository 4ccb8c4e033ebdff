#include "cache/persistent_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace elag {
namespace cache {

namespace {

/**
 * Registry-backed mirrors of PersistentStore::Stats, shared by every
 * store instance in the process (shard workers hold exactly one).
 */
struct PersistCounters
{
    obs::Counter &appends;
    obs::Counter &recovered;
    obs::Counter &tornTruncated;
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &compactions;
    obs::Counter &writeFailures;

    static PersistCounters &
    instance()
    {
        static PersistCounters counters = [] {
            obs::Registry &r = obs::Registry::process();
            return PersistCounters{
                r.counter("elag_cache_persist_appends_total",
                          "Records appended to persistent cache "
                          "segments."),
                r.counter("elag_cache_persist_recovered_total",
                          "Records replayed from segments into the "
                          "index at open."),
                r.counter("elag_cache_persist_torn_truncated_total",
                          "Torn tail records truncated off segments "
                          "during recovery."),
                r.counter("elag_cache_persist_hits_total",
                          "Persistent-cache lookups served from "
                          "disk."),
                r.counter("elag_cache_persist_misses_total",
                          "Persistent-cache lookups that had to "
                          "compute."),
                r.counter("elag_cache_persist_compactions_total",
                          "Segment compaction passes completed."),
                r.counter("elag_cache_persist_write_failures_total",
                          "Segment appends dropped on write failure "
                          "(ENOSPC, short write); degraded to a "
                          "future cache miss."),
            };
        }();
        return counters;
    }
};

/** write(2) everything, retrying EINTR; false on error/EPIPE. */
bool
writeAll(int fd, const void *buf, size_t n)
{
    size_t done = 0;
    const char *p = static_cast<const char *>(buf);
    while (done < n) {
        ssize_t w = ::write(fd, p + done, n - done);
        if (w > 0) {
            done += static_cast<size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** mkdir -p. Throws FatalError when a component cannot be created. */
void
ensureDir(const std::string &dir)
{
    std::string path;
    for (size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/') {
            path += dir[i];
            continue;
        }
        if (i < dir.size())
            path += '/';
        if (path.empty() || path == "/")
            continue;
        if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            fatal("cache: cannot create directory '%s': %s",
                  path.c_str(), std::strerror(errno));
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("cache: '%s' is not a directory", dir.c_str());
}

bool
validOwnerTag(const std::string &owner)
{
    if (owner.empty())
        return false;
    for (char c : owner) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
segmentFileName(const std::string &owner, uint64_t gen)
{
    return formatString("seg-%s.%llu.jsonl", owner.c_str(),
                        static_cast<unsigned long long>(gen));
}

/** Parse "seg-<owner>.<gen>.jsonl"; false on anything else. */
bool
parseSegmentFileName(const std::string &name, std::string &owner,
                     uint64_t &gen)
{
    const std::string prefix = "seg-";
    const std::string suffix = ".jsonl";
    if (!startsWith(name, prefix) || !endsWith(name, suffix) ||
        name.size() <= prefix.size() + suffix.size()) {
        return false;
    }
    std::string middle = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    size_t dot = middle.rfind('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 >= middle.size()) {
        return false;
    }
    owner = middle.substr(0, dot);
    return parseUint64(middle.substr(dot + 1), gen) &&
           validOwnerTag(owner);
}

bool
parseHexKey(const std::string &hex, uint64_t &key)
{
    if (hex.size() != 16)
        return false;
    uint64_t k = 0;
    for (char c : hex) {
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else
            return false;
        k = (k << 4) | digit;
    }
    key = k;
    return true;
}

/**
 * One record line, newline excluded. The scalar members precede the
 * value member, protocol-style, so stats-document text inside the
 * stored value can never shadow them.
 */
std::string
buildRecordLine(uint64_t key, const std::string &value)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("k", formatString("%016llx",
                              static_cast<unsigned long long>(key)));
    w.field("c", static_cast<uint64_t>(
                     crc32(value.data(), value.size())));
    w.field("v", value);
    w.endObject();
    return w.str();
}

/** Validate + decode one record line (no trailing newline). */
bool
parseRecordLine(const std::string &line, uint64_t &key,
                std::string &value)
{
    size_t vpos = line.find("\"v\":");
    if (vpos == std::string::npos)
        return false;
    std::string prefix = line.substr(0, vpos);
    std::string khex;
    uint64_t crc = 0;
    if (!jsonExtractString(prefix, "k", khex) ||
        !parseHexKey(khex, key) ||
        !jsonExtractUint(prefix, "c", crc) || crc > UINT32_MAX) {
        return false;
    }
    if (!jsonExtractString(line.substr(vpos), "v", value))
        return false;
    return crc32(value.data(), value.size()) == crc;
}

} // anonymous namespace

PersistentStore::PersistentStore(const PersistentStoreConfig &config)
    : cfg(config)
{
    if (cfg.dir.empty())
        fatal("cache: persistent store directory is empty");
    if (!validOwnerTag(cfg.owner))
        fatal("cache: owner tag '%s' must match [A-Za-z0-9_-]+",
              cfg.owner.c_str());
    ensureDir(cfg.dir);

    // Collect and replay every segment, all owners, in (gen, owner)
    // order so replay is deterministic. Records are content-addressed
    // and deterministic per key, so replay order only matters for
    // tie-breaking identical entries.
    struct Found
    {
        std::string path;
        std::string owner;
        uint64_t gen;
    };
    std::vector<Found> found;
    DIR *d = ::opendir(cfg.dir.c_str());
    if (!d)
        fatal("cache: cannot open directory '%s': %s",
              cfg.dir.c_str(), std::strerror(errno));
    while (struct dirent *entry = ::readdir(d)) {
        std::string owner;
        uint64_t gen;
        if (parseSegmentFileName(entry->d_name, owner, gen)) {
            found.push_back(
                {cfg.dir + "/" + entry->d_name, owner, gen});
            if (gen >= nextGen_)
                nextGen_ = gen + 1;
        }
    }
    ::closedir(d);
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.gen != b.gen ? a.gen < b.gen
                                        : a.owner < b.owner;
              });

    {
        std::lock_guard<std::mutex> lock(mu);
        for (const Found &f : found)
            loadSegment(f.path, f.owner == cfg.owner);
    }

    openActiveSegment();

    size_t owned = 0;
    for (const Segment &seg : segments_)
        if (seg.owned)
            ++owned;
    if (owned >= cfg.compactSegmentThreshold)
        compact();
}

PersistentStore::~PersistentStore()
{
    std::lock_guard<std::mutex> lock(mu);
    if (activeFd_ >= 0) {
        ::fsync(activeFd_);
        ::close(activeFd_);
        activeFd_ = -1;
    }
}

void
PersistentStore::loadSegment(const std::string &path, bool owned)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        warn("cache: cannot open segment '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    std::string data;
    char buf[1 << 16];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r > 0) {
            data.append(buf, static_cast<size_t>(r));
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);

    segments_.push_back(Segment{path, owned});
    uint32_t seg = static_cast<uint32_t>(segments_.size() - 1);

    // Split into complete lines; bytes after the last newline are a
    // partial (torn) record.
    struct Line
    {
        size_t begin;
        size_t end; // one past the newline
    };
    std::vector<Line> lines;
    size_t pos = 0;
    while (pos < data.size()) {
        size_t nl = data.find('\n', pos);
        if (nl == std::string::npos)
            break;
        lines.push_back({pos, nl + 1});
        pos = nl + 1;
    }
    bool partialTail = pos < data.size();

    size_t truncateAt = std::string::npos;
    uint64_t torn = partialTail ? 1 : 0;
    if (partialTail)
        truncateAt = pos;

    for (size_t i = 0; i < lines.size(); ++i) {
        const Line &line = lines[i];
        std::string text = data.substr(line.begin,
                                       line.end - line.begin - 1);
        uint64_t key;
        std::string value;
        if (parseRecordLine(text, key, value)) {
            index_[key] = Location{
                seg, line.begin,
                static_cast<uint32_t>(line.end - line.begin)};
            ++stats_.recovered;
            PersistCounters::instance().recovered.inc();
            continue;
        }
        if (i + 1 == lines.size()) {
            // A damaged final record is a torn tail: the crash (or
            // the corruption) hit the end of the segment, so cutting
            // it off loses exactly that record.
            truncateAt = line.begin;
            ++torn;
        } else {
            // Mid-file damage: skip the record, keep what follows.
            ++stats_.corruptSkipped;
            warn("cache: skipping corrupt record in '%s'",
                 path.c_str());
        }
    }

    if (truncateAt != std::string::npos) {
        if (::truncate(path.c_str(),
                       static_cast<off_t>(truncateAt)) != 0) {
            warn("cache: cannot truncate torn tail of '%s': %s",
                 path.c_str(), std::strerror(errno));
        }
        stats_.tornTruncated += torn;
        PersistCounters::instance().tornTruncated.inc(torn);
        warn("cache: truncated %llu torn record%s off '%s'",
             static_cast<unsigned long long>(torn),
             torn == 1 ? "" : "s", path.c_str());
    }
}

void
PersistentStore::openActiveSegment()
{
    std::lock_guard<std::mutex> lock(mu);
    std::string path =
        cfg.dir + "/" + segmentFileName(cfg.owner, nextGen_);
    ++nextGen_;
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND,
                    0666);
    if (fd < 0)
        fatal("cache: cannot create segment '%s': %s", path.c_str(),
              std::strerror(errno));
    segments_.push_back(Segment{path, true});
    activeFd_ = fd;
    activeSegment_ = static_cast<uint32_t>(segments_.size() - 1);
    activeSize_ = 0;
}

void
PersistentStore::rotateLocked()
{
    ::fsync(activeFd_);
    ::close(activeFd_);
    std::string path =
        cfg.dir + "/" + segmentFileName(cfg.owner, nextGen_);
    ++nextGen_;
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND,
                    0666);
    if (fd < 0)
        fatal("cache: cannot create segment '%s': %s", path.c_str(),
              std::strerror(errno));
    segments_.push_back(Segment{path, true});
    activeFd_ = fd;
    activeSegment_ = static_cast<uint32_t>(segments_.size() - 1);
    activeSize_ = 0;
}

bool
PersistentStore::readRecord(const Location &loc, uint64_t &key,
                            std::string &value) const
{
    const Segment &seg = segments_[loc.segment];
    if (seg.path.empty())
        return false;
    int fd = ::open(seg.path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    std::string line(loc.length, '\0');
    size_t done = 0;
    while (done < loc.length) {
        ssize_t r = ::pread(fd, line.data() + done,
                            loc.length - done, loc.offset + done);
        if (r > 0) {
            done += static_cast<size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);
    if (done != loc.length || line.back() != '\n')
        return false;
    line.pop_back();
    uint64_t got_key;
    if (!parseRecordLine(line, got_key, value) || got_key != key)
        return false;
    return true;
}

bool
PersistentStore::lookup(uint64_t key, std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        PersistCounters::instance().misses.inc();
        return false;
    }
    uint64_t want = key;
    if (!readRecord(it->second, want, value)) {
        // The record rotted (or its segment vanished) after
        // indexing: better a recompute than a wrong answer.
        index_.erase(it);
        ++stats_.readFailures;
        ++stats_.misses;
        PersistCounters::instance().misses.inc();
        return false;
    }
    ++stats_.hits;
    PersistCounters::instance().hits.inc();
    return true;
}

void
PersistentStore::append(uint64_t key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    if (index_.count(key)) {
        ++stats_.dedupSkipped;
        return;
    }
    if (activeFd_ < 0) {
        // Appending was disabled by an earlier unrecoverable write
        // failure; the store keeps serving lookups.
        ++stats_.writeFailures;
        PersistCounters::instance().writeFailures.inc();
        return;
    }
    std::string line = buildRecordLine(key, value);
    line += '\n';
    if (activeSize_ > 0 &&
        activeSize_ + line.size() > cfg.maxSegmentBytes) {
        rotateLocked();
    }
    uint64_t offset = activeSize_;
    if (!writeAll(activeFd_, line.data(), line.size())) {
        // ENOSPC or a short write: the segment tail may now hold a
        // torn record. Truncate back to the last good byte so the
        // on-disk offsets stay truthful, drop this record (a future
        // cache miss), and never fail the request that computed it.
        int saved = errno;
        ++stats_.writeFailures;
        PersistCounters::instance().writeFailures.inc();
        if (::ftruncate(activeFd_, static_cast<off_t>(activeSize_)) !=
                0 ||
            ::lseek(activeFd_, static_cast<off_t>(activeSize_),
                    SEEK_SET) < 0) {
            // Cannot restore the tail: stop appending entirely
            // rather than risk indexing records at wrong offsets.
            ::close(activeFd_);
            activeFd_ = -1;
            warn("cache: append failed (%s) and the segment tail "
                 "could not be restored; appends disabled, lookups "
                 "unaffected",
                 std::strerror(saved));
        } else {
            warn("cache: append to segment failed (%s); record "
                 "dropped, cache degrades to a miss",
                 std::strerror(saved));
        }
        return;
    }
    activeSize_ += line.size();
    index_[key] = Location{activeSegment_, offset,
                           static_cast<uint32_t>(line.size())};
    ++stats_.appends;
    PersistCounters::instance().appends.inc();
}

void
PersistentStore::breakActiveSegmentForTesting()
{
    std::lock_guard<std::mutex> lock(mu);
    if (activeFd_ >= 0)
        ::close(activeFd_);
    // /dev/full makes write(2) return a genuine ENOSPC; ftruncate on
    // a character device then fails too, so the store walks the full
    // degradation path: record dropped, tail unrestorable, appends
    // disabled, lookups untouched.
    activeFd_ = ::open("/dev/full", O_WRONLY);
}

void
PersistentStore::compact()
{
    std::lock_guard<std::mutex> lock(mu);

    // Collect the live records currently resident in own segments.
    std::vector<std::pair<uint64_t, std::string>> live;
    for (const auto &kv : index_) {
        if (!segments_[kv.second.segment].owned)
            continue;
        uint64_t key = kv.first;
        std::string value;
        if (readRecord(kv.second, key, value))
            live.emplace_back(kv.first, std::move(value));
    }
    // Deterministic segment layout regardless of hash-map order.
    std::sort(live.begin(), live.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    std::string finalPath =
        cfg.dir + "/" + segmentFileName(cfg.owner, nextGen_);
    std::string tmpPath = finalPath + ".tmp";
    ++nextGen_;
    int fd = ::open(tmpPath.c_str(),
                    O_CREAT | O_WRONLY | O_TRUNC, 0666);
    if (fd < 0) {
        warn("cache: compaction cannot create '%s': %s",
             tmpPath.c_str(), std::strerror(errno));
        return;
    }
    struct Written
    {
        uint64_t key;
        uint64_t offset;
        uint32_t length;
    };
    std::vector<Written> written;
    written.reserve(live.size());
    uint64_t offset = 0;
    for (const auto &kv : live) {
        std::string line = buildRecordLine(kv.first, kv.second);
        line += '\n';
        if (!writeAll(fd, line.data(), line.size())) {
            warn("cache: compaction write failed: %s",
                 std::strerror(errno));
            ::close(fd);
            ::unlink(tmpPath.c_str());
            return;
        }
        written.push_back({kv.first, offset,
                           static_cast<uint32_t>(line.size())});
        offset += line.size();
    }
    // The rename is the commit point: fsync first so the replacement
    // is fully on disk before it becomes visible under its real name.
    ::fsync(fd);
    ::close(fd);
    if (::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
        warn("cache: compaction rename failed: %s",
             std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return;
    }

    // Retire every old own segment: close the active fd, unlink the
    // files, and dead-mark their slots (index entries pointing at
    // them are all being repointed below).
    if (activeFd_ >= 0) {
        ::close(activeFd_);
        activeFd_ = -1;
    }
    for (Segment &seg : segments_) {
        if (!seg.owned || seg.path.empty())
            continue;
        ::unlink(seg.path.c_str());
        seg.path.clear();
        seg.owned = false;
    }

    segments_.push_back(Segment{finalPath, true});
    uint32_t seg = static_cast<uint32_t>(segments_.size() - 1);
    for (const Written &rec : written)
        index_[rec.key] = Location{seg, rec.offset, rec.length};

    // The compacted segment doubles as the new active segment.
    activeFd_ = ::open(finalPath.c_str(), O_WRONLY | O_APPEND);
    if (activeFd_ < 0)
        fatal("cache: cannot reopen compacted segment '%s': %s",
              finalPath.c_str(), std::strerror(errno));
    activeSegment_ = seg;
    activeSize_ = offset;

    ++stats_.compactions;
    PersistCounters::instance().compactions.inc();
}

PersistentStore::Stats
PersistentStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stats_;
}

size_t
PersistentStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return index_.size();
}

} // namespace cache
} // namespace elag
