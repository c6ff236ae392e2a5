#include "backing_store.hh"

#include <algorithm>

#include "common/log.hh"

namespace ladder
{

BackingStore::BackingStore(const MemoryGeometry &geo, bool trackBitlines,
                           double backgroundDensity)
    : geo_(geo),
      map_(geo),
      trackBitlines_(trackBitlines),
      backgroundDensity_(backgroundDensity)
{
    ladder_assert(backgroundDensity >= 0.0 && backgroundDensity <= 1.0,
                  "background density out of range");
    ladder_assert(geo_.channels > 0, "geometry needs >= 1 channel");
}

void
BackingStore::setPageInitializer(PageInitializer init)
{
    init_ = std::move(init);
}

PageContent &
BackingStore::page(std::uint64_t pageIndex)
{
    auto it = pages_.find(pageIndex);
    if (it != pages_.end())
        return it->second;

    PageContent &content = pages_[pageIndex];
    if (init_)
        init_(pageIndex, content);
    // Establish the mat counters from the initial content.
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat) {
        unsigned count = 0;
        for (const auto &block : content.blocks)
            count += popcount8(block[mat]);
        content.matCounts[mat] = static_cast<std::uint16_t>(count);
    }
    if (trackBitlines_) {
        // Fold the initial content into the bitline counters.
        BlockLocation loc = map_.decode(pageIndex *
                                        MemoryGeometry::pageBytes);
        auto &counters = groupCounters(loc);
        for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
            const LineData &block = content.blocks[b];
            for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup;
                 ++mat) {
                std::uint8_t byte = block[mat];
                while (byte) {
                    unsigned bit =
                        static_cast<unsigned>(std::countr_zero(byte));
                    byte = static_cast<std::uint8_t>(byte &
                                                     (byte - 1));
                    ++counters.counts[mat * geo_.matCols + b * 8 +
                                      bit];
                }
            }
        }
    }
    return content;
}

std::uint64_t
BackingStore::matGroupKey(const BlockLocation &loc) const
{
    std::uint64_t key = loc.flatBank(geo_);
    return key * geo_.matGroupsPerBank + loc.matGroup;
}

BackingStore::MatGroupCounters &
BackingStore::groupCounters(const BlockLocation &loc)
{
    auto key = matGroupKey(loc);
    auto it = groupCounters_.find(key);
    if (it == groupCounters_.end()) {
        auto counters = std::make_unique<MatGroupCounters>();
        // Rows outside the simulated working set are assumed occupied
        // by background data at the configured density.
        auto background = static_cast<std::uint16_t>(
            backgroundDensity_ * static_cast<double>(geo_.matRows));
        counters->counts.assign(
            static_cast<std::size_t>(MemoryGeometry::matsPerGroup) *
                geo_.matCols,
            background);
        it = groupCounters_.emplace(key, std::move(counters)).first;
    }
    return *it->second;
}

const LineData &
BackingStore::read(Addr lineAddr)
{
    BlockLocation loc = map_.decode(lineAddr);
    return page(loc.pageIndex).blocks[loc.blockInPage];
}

BitTransitions
BackingStore::write(Addr lineAddr, const LineData &data)
{
    BlockLocation loc = map_.decode(lineAddr);
    PageContent &content = page(loc.pageIndex);
    LineData &block = content.blocks[loc.blockInPage];

    BitTransitions transitions = countTransitions(block, data);
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat) {
        int delta = static_cast<int>(popcount8(data[mat])) -
                    static_cast<int>(popcount8(block[mat]));
        content.matCounts[mat] =
            static_cast<std::uint16_t>(content.matCounts[mat] + delta);
    }
    if (trackBitlines_)
        applyBitlineDeltas(loc, block, data);
    block = data;
    return transitions;
}

void
BackingStore::applyBitlineDeltas(const BlockLocation &loc,
                                 const LineData &before,
                                 const LineData &after)
{
    auto &counters = groupCounters(loc);
    const unsigned base = loc.blockInPage * 8;
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat) {
        std::uint8_t changed = before[mat] ^ after[mat];
        while (changed) {
            unsigned bit =
                static_cast<unsigned>(std::countr_zero(changed));
            changed = static_cast<std::uint8_t>(changed &
                                                (changed - 1));
            auto &count =
                counters.counts[mat * geo_.matCols + base + bit];
            if (after[mat] & (1u << bit))
                ++count;
            else
                --count;
        }
    }
}

bool
BackingStore::pageResident(std::uint64_t pageIndex) const
{
    return pages_.count(pageIndex) != 0;
}

std::uint16_t
BackingStore::matLrsCount(std::uint64_t pageIndex, unsigned mat)
{
    ladder_assert(mat < MemoryGeometry::matsPerGroup,
                  "mat %u out of range", mat);
    return page(pageIndex).matCounts[mat];
}

std::uint16_t
BackingStore::maxMatLrsCount(std::uint64_t pageIndex)
{
    const auto &counts = page(pageIndex).matCounts;
    return *std::max_element(counts.begin(), counts.end());
}

std::uint16_t
BackingStore::maxSelectedBitlineLrs(Addr lineAddr)
{
    ladder_assert(trackBitlines_,
                  "bitline tracking disabled in backing store");
    BlockLocation loc = map_.decode(lineAddr);
    // Materialize the page so the counters reflect its content.
    page(loc.pageIndex);
    auto &counters = groupCounters(loc);
    const unsigned base = loc.blockInPage * 8;
    std::uint16_t best = 0;
    for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup; ++mat)
        for (unsigned bit = 0; bit < 8; ++bit)
            best = std::max(
                best, counters.counts[mat * geo_.matCols + base + bit]);
    return best;
}

bool
BackingStore::flipped(Addr lineAddr)
{
    BlockLocation loc = map_.decode(lineAddr);
    return (page(loc.pageIndex).flippedMask >> loc.blockInPage) & 1;
}

void
BackingStore::setFlipped(Addr lineAddr, bool value)
{
    BlockLocation loc = map_.decode(lineAddr);
    std::uint64_t bit = 1ull << loc.blockInPage;
    auto &mask = page(loc.pageIndex).flippedMask;
    if (value)
        mask |= bit;
    else
        mask &= ~bit;
}

} // namespace ladder
