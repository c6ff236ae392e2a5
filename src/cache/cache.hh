/**
 * @file
 * A content-carrying set-associative write-back cache. Unlike a pure
 * hit/miss model, lines hold their 64-byte payloads so dirty evictions
 * deliver real bit patterns to the ReRAM controller — the signal
 * LADDER's content-aware latency depends on.
 */

#ifndef LADDER_CACHE_CACHE_HH
#define LADDER_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace ladder
{

/** Geometry of one cache level. */
struct CacheParams
{
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 2;
};

/** An evicted line returned from insert(). */
struct CacheVictim
{
    bool valid = false;
    bool dirty = false;
    Addr addr = invalidAddr;
    LineData data{};
};

/** One level of write-back cache with LRU replacement. */
class Cache
{
  public:
    Cache(const CacheParams &params, std::string name);

    /** Line payload if present (updates recency); else nullptr. */
    LineData *probe(Addr lineAddr);

    /** probe() for a store: a present line is also marked dirty. */
    LineData *probeForWrite(Addr lineAddr);

    /** Presence check without recency update. */
    bool contains(Addr lineAddr) const;

    /** Whether a (present) line is dirty. */
    bool isDirty(Addr lineAddr) const;

    /**
     * Insert a line (no-op refresh if already present, merging the
     * dirty flag and payload). Returns the evicted victim, if any.
     */
    CacheVictim insert(Addr lineAddr, const LineData &data, bool dirty);

    /** Drop a line without writeback. */
    void invalidate(Addr lineAddr);

    /** Invalidate everything (returns dirty lines for writeback). */
    std::vector<CacheVictim> flush();

    const std::string &name() const { return name_; }
    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    StatScalar hits;
    StatScalar misses;
    StatScalar evictions;
    StatScalar dirtyEvictions;

    /**
     * Register this cache's statistics into @p group, each name
     * prefixed with @p prefix (e.g. "l1_" to fold the private levels
     * of one core into a single group).
     */
    void regStats(StatGroup &group, const std::string &prefix = "");

  private:
    struct Way
    {
        Addr addr = invalidAddr;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
        LineData data{};
    };

    std::string name_;
    unsigned sets_;
    unsigned ways_;
    std::uint64_t useCounter_ = 0;
    std::vector<Way> lines_;

    unsigned setIndex(Addr lineAddr) const;
    Way *find(Addr lineAddr);
    const Way *find(Addr lineAddr) const;
    /** A hit's way (counted, recency updated), or nullptr (a miss). */
    Way *lookup(Addr lineAddr);
};

} // namespace ladder

#endif // LADDER_CACHE_CACHE_HH
