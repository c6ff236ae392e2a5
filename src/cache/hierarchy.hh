/**
 * @file
 * Three-level content-carrying cache hierarchy (private L1/L2 per
 * core, shared L3), functional-timing style: hits resolve immediately
 * with a fixed latency, misses are filled by the caller after the
 * memory round trip. Dirty victims cascade downward with
 * allocate-on-writeback; L3 dirty victims are returned to the caller
 * for delivery to the memory controller.
 *
 * The evaluated workloads run one program per core in disjoint
 * address regions, so no coherence protocol is needed.
 */

#ifndef LADDER_CACHE_HIERARCHY_HH
#define LADDER_CACHE_HIERARCHY_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.hh"

namespace ladder
{

/** Hierarchy geometry and hit latencies. */
struct HierarchyParams
{
    CacheParams l1{32 * 1024, 2};
    CacheParams l2{512 * 1024, 8};
    CacheParams l3{2 * 1024 * 1024, 16};
    double l1HitNs = 1.0;
    double l2HitNs = 4.0;
    double l3HitNs = 12.0;
    unsigned cores = 1;
};

/** A dirty line bound for main memory. */
using Writeback = std::pair<Addr, LineData>;

/** The multi-level cache model. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &params);

    /** Successful read: payload + hit latency. */
    struct ReadResult
    {
        double latencyNs = 0.0;
        LineData data{};
    };

    /**
     * Look up a read. Hits promote into the upper levels. A miss
     * returns nullopt; the caller fetches from memory and calls
     * fill().
     *
     * @param writebacks Out: dirty L3 victims displaced by promotion.
     */
    std::optional<ReadResult> read(unsigned core, Addr lineAddr,
                                   std::vector<Writeback> &writebacks);

    /**
     * Apply an 8-byte store. Returns the hit latency, or nullopt on a
     * full miss (write-allocate: fetch the line, fill(), retry).
     */
    std::optional<double> write(unsigned core, Addr lineAddr,
                                unsigned offset,
                                const std::uint8_t *bytes,
                                std::vector<Writeback> &writebacks);

    /**
     * Install a line after its memory fill returned.
     *
     * @param writebacks Out: dirty L3 victims to send to memory.
     */
    void fill(unsigned core, Addr lineAddr, const LineData &data,
              std::vector<Writeback> &writebacks);

    /** Write back and drop every dirty line (tests / drain). */
    std::vector<Writeback> flushAll();

    Cache &l1(unsigned core) { return *l1_[core]; }
    Cache &l2(unsigned core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }
    const HierarchyParams &params() const { return params_; }

  private:
    HierarchyParams params_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;

    /** Insert a dirty victim into @p level, cascading further. */
    void writebackInto(Cache &level, Cache *below, Addr addr,
                       const LineData &data,
                       std::vector<Writeback> &writebacks);

    /** Insert a clean fill into a level, cascading its victim. */
    void installClean(Cache &level, Cache *below, Addr addr,
                      const LineData &data,
                      std::vector<Writeback> &writebacks);
};

} // namespace ladder

#endif // LADDER_CACHE_HIERARCHY_HH
