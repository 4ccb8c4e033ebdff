/**
 * @file
 * Disk-backed, content-addressed result cache that survives crashes.
 *
 * The serving tier memoizes pure computations (a simulate request is
 * a deterministic function of the program text and machine knobs),
 * but the in-memory sim::RunCache dies with its process — one wild
 * simulation used to cost the whole warm set. PersistentStore is the
 * durable tier layered under it: results are appended to on-disk
 * JSONL segments as they are computed, and a restarted (or freshly
 * respawned) process recovers the index by replaying the segments,
 * so previously computed results are served without re-simulation.
 *
 * Durability model — crash-safe, not power-safe:
 *
 *  - Segments are append-only; a record is one JSONL line carrying
 *    the 64-bit content key, a CRC32 of the value, and the value
 *    itself. Appends never rewrite existing bytes, so a SIGKILL can
 *    only ever damage the tail of one segment.
 *  - Recovery validates every line (shape + CRC). A torn tail — a
 *    partial last line, or a final line whose CRC fails — is
 *    truncated off, dropping exactly the torn record; everything
 *    before it stays served. Mid-file corruption (bit rot) skips the
 *    damaged record without truncating what follows.
 *  - fsync happens on rotation and compaction, not per append: the
 *    threat model is process death (page cache survives), not power
 *    loss.
 *
 * Sharing model: every process (each shard worker, or an embedded
 * single-process daemon) writes only its own segments — the owner
 * tag is part of the segment file name — so concurrent writers never
 * interleave bytes. All processes read all segments at startup,
 * which is what makes the cache shared across shards and warm after
 * restart. Values are kept on disk, not in memory: the in-memory
 * index maps key -> (segment, offset, length) and hits re-read and
 * re-verify the record, so a billion-entry cache costs index entries,
 * not value bytes.
 *
 * Compaction folds an owner's segments into one (duplicate keys and
 * torn survivors dropped), writes the replacement to a temp file,
 * fsyncs, and renames atomically — a crash mid-compaction leaves
 * either the old segments or the new one, never a half state.
 */

#ifndef ELAG_CACHE_PERSISTENT_STORE_HH
#define ELAG_CACHE_PERSISTENT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace elag {
namespace cache {

struct PersistentStoreConfig
{
    /** Cache directory (created, parents included, if missing). */
    std::string dir;
    /**
     * Writer identity, part of this process's segment file names;
     * must be unique among concurrent writers of one directory
     * (shard workers use "shard<index>", the embedded daemon "main").
     * Must match [A-Za-z0-9_-]+.
     */
    std::string owner = "main";
    /** Rotate the active segment past this many bytes. */
    size_t maxSegmentBytes = 8u << 20;
    /** Auto-compact at open when own segments exceed this count. */
    size_t compactSegmentThreshold = 8;
};

class PersistentStore
{
  public:
    /**
     * Open @p config.dir: create it if needed, replay every segment
     * into the index (truncating torn tails), auto-compact when this
     * owner's segment count passed the threshold, and start the
     * active segment. Throws FatalError on an unusable directory or
     * a malformed owner tag.
     */
    explicit PersistentStore(const PersistentStoreConfig &config);
    ~PersistentStore();

    PersistentStore(const PersistentStore &) = delete;
    PersistentStore &operator=(const PersistentStore &) = delete;

    /**
     * Fetch the value stored under @p key: re-reads the record from
     * its segment and re-verifies the CRC, so a record that rotted
     * on disk after indexing is a miss, never a wrong answer.
     */
    bool lookup(uint64_t key, std::string &value);

    /**
     * Durably record @p value under @p key (append + index update).
     * A key already present is skipped — values are content-addressed
     * and deterministic, so the first write wins and duplicates from
     * shard failover cost nothing.
     *
     * Write failures (ENOSPC, short write) never propagate to the
     * caller: the torn bytes are truncated back off the segment, the
     * record is dropped (a future cache miss), and the failure is
     * counted. If even the truncate-back fails the store stops
     * appending — lookups of everything already stored keep working.
     */
    void append(uint64_t key, const std::string &value);

    /**
     * Close the active segment fd out from under the store, forcing
     * every subsequent append down the write-failure path (tests
     * only; simulates ENOSPC/short-write degradation).
     */
    void breakActiveSegmentForTesting();

    /**
     * Fold this owner's segments into one: live records only, temp
     * file + fsync + atomic rename, then unlink the replaced
     * segments. Records living in other owners' segments are left
     * untouched.
     */
    void compact();

    struct Stats
    {
        uint64_t appends = 0;
        /** append() calls skipped because the key was present. */
        uint64_t dedupSkipped = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        /** Records replayed into the index at open. */
        uint64_t recovered = 0;
        /** Torn tails truncated off segments at open. */
        uint64_t tornTruncated = 0;
        /** Mid-file records skipped for bad shape/CRC at open. */
        uint64_t corruptSkipped = 0;
        /** Hits that failed re-verification and became misses. */
        uint64_t readFailures = 0;
        /**
         * Appends dropped because the segment write failed (ENOSPC,
         * short write, dead fd). The record simply stays uncached —
         * a future miss — the request that computed it is unharmed.
         */
        uint64_t writeFailures = 0;
        uint64_t compactions = 0;
    };

    Stats stats() const;

    /** Indexed entries. */
    size_t size() const;

    const std::string &dir() const { return cfg.dir; }

  private:
    /** Where one value lives on disk. */
    struct Location
    {
        uint32_t segment = 0; ///< index into segments_
        uint64_t offset = 0;  ///< byte offset of the record line
        uint32_t length = 0;  ///< record line length, newline included
    };

    struct Segment
    {
        std::string path;
        bool owned = false; ///< written by this process's owner tag
    };

    /** Replay one segment file into the index. Lock held. */
    void loadSegment(const std::string &path, bool owned);

    /** Open (creating) the active own segment for appending. */
    void openActiveSegment();

    /** Rotate to a fresh own segment. Lock held. */
    void rotateLocked();

    /** Read+verify the record at @p loc; false on any damage. */
    bool readRecord(const Location &loc, uint64_t &key,
                    std::string &value) const;

    PersistentStoreConfig cfg;

    mutable std::mutex mu;
    std::vector<Segment> segments_;
    std::unordered_map<uint64_t, Location> index_;
    /** Next generation number for this owner's segment files. */
    uint64_t nextGen_ = 1;
    /** Active own segment: fd, index into segments_, current size. */
    int activeFd_ = -1;
    uint32_t activeSegment_ = 0;
    uint64_t activeSize_ = 0;
    Stats stats_;
};

} // namespace cache
} // namespace elag

#endif // ELAG_CACHE_PERSISTENT_STORE_HH
