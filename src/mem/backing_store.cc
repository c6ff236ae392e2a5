#include "backing_store.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/log.hh"

namespace ladder
{

namespace
{

/** Index slots before the first growth (grows at half full). */
constexpr unsigned initialIndexLog2 = 10;
/** Bitline counters one block selects (8 in each of 64 mats). */
constexpr unsigned bitlinesPerBlock = MemoryGeometry::matsPerGroup * 8;
static_assert(MemoryGeometry::matsPerGroup == lineBytes,
              "a block holds one byte per mat");
/** The even byte lanes of a word, each widened to 16 bits. */
constexpr std::uint64_t evenLanes = 0x00ff00ff00ff00ffull;

/**
 * Each nibble value's bits spread one per 16-bit lane. Adding the
 * spreads of a mat byte's low and high nibble to that mat's 8
 * contiguous bitline counters, read as two little-endian words,
 * counts every set bit at once. No lane carries while a count, at
 * most the background rows plus the group's pages (2 x
 * xbar.rows), stays below 65,536; the constructor enforces it.
 */
constexpr std::array<std::uint64_t, 16> nibbleSpread = [] {
    std::array<std::uint64_t, 16> s{};
    for (unsigned v = 0; v < 16; ++v)
        for (unsigned k = 0; k < 4; ++k)
            s[v] |= static_cast<std::uint64_t>((v >> k) & 1) << (16 * k);
    return s;
}();

} // anonymous namespace

BackingStore::BackingStore(const MemoryGeometry &geo, bool trackBitlines,
                           double backgroundDensity)
    : geo_(geo),
      map_(geo),
      totalPages_(map_.totalPages()),
      trackBitlines_(trackBitlines),
      backgroundDensity_(backgroundDensity),
      index_(std::size_t{1} << initialIndexLog2),
      indexShift_(64 - initialIndexLog2)
{
    ladder_assert(backgroundDensity >= 0.0 && backgroundDensity <= 1.0,
                  "background density out of range");
    ladder_assert(geo_.channels > 0, "geometry needs >= 1 channel");
    ladder_assert(!trackBitlines || 2 * geo_.matRows <= 65535,
                  "16-bit bitline counters need xbar.rows <= 32767");
}

void
BackingStore::setPageInitializer(PageInitializer init)
{
    init_ = std::move(init);
}

std::size_t
BackingStore::probeStart(std::uint64_t pageIndex) const
{
    // Fibonacci hashing: the top bits of the product spread runs of
    // consecutive or strided page numbers across the table.
    return (pageIndex * 0x9e3779b97f4a7c15ull) >> indexShift_;
}

PageContent *
BackingStore::findPage(std::uint64_t pageIndex) const
{
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = probeStart(pageIndex);; i = (i + 1) & mask) {
        PageContent *content = index_[i];
        if (!content || content->pageIndex == pageIndex)
            return content;
    }
}

void
BackingStore::insertIndex(PageContent *content)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t i = probeStart(content->pageIndex);
    while (index_[i])
        i = (i + 1) & mask;
    index_[i] = content;
}

StoreLine
BackingStore::line(Addr lineAddr)
{
    const std::uint64_t pageIndex = map_.pageOf(lineAddr);
    ladder_assert(pageIndex < totalPages_,
                  "address 0x%llx beyond memory capacity",
                  static_cast<unsigned long long>(lineAddr));
    const auto block = static_cast<unsigned>(
        (lineAddr / lineBytes) % MemoryGeometry::blocksPerPage);
    PageContent *content = findPage(pageIndex);
    return {content ? content : &materialize(lineAddr), block};
}

PageContent &
BackingStore::materialize(Addr lineAddr)
{
    const BlockLocation loc = map_.decode(lineAddr);
    if ((pages_.size() + 1) * 2 > index_.size()) {
        // Keep the index at most half full: double it and rehash.
        std::vector<PageContent *> old(index_.size() * 2);
        old.swap(index_);
        --indexShift_;
        for (PageContent *content : old)
            if (content)
                insertIndex(content);
    }
    PageContent &content = pages_.emplace_back();
    if (init_)
        init_(loc.pageIndex, content);
    content.pageIndex = loc.pageIndex;
    insertIndex(&content);
    // Establish the mat counters from the initial content. Lane k of
    // word w counts mat 8w+k; a mat's sum over 64 blocks reaches 512,
    // so the even and odd lanes are summed apart in 16-bit lanes.
    for (unsigned w = 0; w < lineBytes / 8; ++w) {
        std::uint64_t even = 0, odd = 0;
        for (const auto &block : content.blocks) {
            const std::uint64_t counts = byteCounts(lineWord(block, w));
            even += counts & evenLanes;
            odd += (counts >> 8) & evenLanes;
        }
        for (unsigned k = 0; k < 4; ++k) {
            content.matCounts[w * 8 + 2 * k] =
                static_cast<std::uint16_t>(even >> (16 * k));
            content.matCounts[w * 8 + 2 * k + 1] =
                static_cast<std::uint16_t>(odd >> (16 * k));
        }
    }
    if (trackBitlines_) {
        // Fold the initial content into the bitline counters, 4 bits
        // of a mat byte per lane add.
        content.bitlines = groupCounters(loc);
        for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
            const LineData &block = content.blocks[b];
            std::uint16_t *counts =
                content.bitlines + b * bitlinesPerBlock;
            for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup;
                 ++mat) {
                std::uint64_t lanes[2];
                std::memcpy(lanes, counts + mat * 8, sizeof(lanes));
                lanes[0] += nibbleSpread[block[mat] & 15];
                lanes[1] += nibbleSpread[block[mat] >> 4];
                std::memcpy(counts + mat * 8, lanes, sizeof(lanes));
            }
        }
    }
    return content;
}

std::uint16_t *
BackingStore::groupCounters(const BlockLocation &loc)
{
    const std::uint64_t key =
        static_cast<std::uint64_t>(loc.flatBank(geo_)) *
            geo_.matGroupsPerBank +
        loc.matGroup;
    auto [it, inserted] = groupCounters_.try_emplace(key);
    if (inserted) {
        // Rows outside the simulated working set are assumed occupied
        // by background data at the configured density.
        auto background = static_cast<std::uint16_t>(
            backgroundDensity_ * static_cast<double>(geo_.matRows));
        it->second.assign(static_cast<std::size_t>(
                              MemoryGeometry::blocksPerPage) *
                              bitlinesPerBlock,
                          background);
    }
    return it->second.data();
}

BitTransitions
BackingStore::write(StoreLine l, const LineData &data)
{
    PageContent &content = *l.page;
    LineData &block = content.blocks[l.block];

    BitTransitions transitions = countTransitions(block, data);
    for (unsigned w = 0; w < lineBytes / 8; ++w) {
        const std::uint64_t added = byteCounts(lineWord(data, w));
        const std::uint64_t removed = byteCounts(lineWord(block, w));
        for (unsigned k = 0; k < 8; ++k) {
            std::uint16_t &count = content.matCounts[w * 8 + k];
            count = static_cast<std::uint16_t>(
                count + ((added >> (8 * k)) & 0xff) -
                ((removed >> (8 * k)) & 0xff));
        }
    }
    if (content.bitlines) {
        std::uint16_t *counts =
            content.bitlines + l.block * bitlinesPerBlock;
        for (unsigned mat = 0; mat < MemoryGeometry::matsPerGroup;
             ++mat) {
            std::uint8_t changed = block[mat] ^ data[mat];
            while (changed) {
                unsigned bit =
                    static_cast<unsigned>(std::countr_zero(changed));
                changed = static_cast<std::uint8_t>(changed &
                                                    (changed - 1));
                if (data[mat] & (1u << bit))
                    ++counts[mat * 8 + bit];
                else
                    --counts[mat * 8 + bit];
            }
        }
    }
    block = data;
    return transitions;
}

bool
BackingStore::pageResident(std::uint64_t pageIndex) const
{
    return findPage(pageIndex) != nullptr;
}

std::uint16_t
BackingStore::matLrsCount(std::uint64_t pageIndex, unsigned mat)
{
    ladder_assert(mat < MemoryGeometry::matsPerGroup,
                  "mat %u out of range", mat);
    return line(pageIndex * MemoryGeometry::pageBytes)
        .page->matCounts[mat];
}

std::uint16_t
BackingStore::maxMatLrsCount(StoreLine l) const
{
    const auto &counts = l.page->matCounts;
    return *std::max_element(counts.begin(), counts.end());
}

std::uint16_t
BackingStore::maxSelectedBitlineLrs(StoreLine l) const
{
    ladder_assert(trackBitlines_,
                  "bitline tracking disabled in backing store");
    const std::uint16_t *counts =
        l.page->bitlines + l.block * bitlinesPerBlock;
    std::uint16_t best = 0;
    for (unsigned i = 0; i < bitlinesPerBlock; ++i)
        best = std::max(best, counts[i]);
    return best;
}

void
BackingStore::setFlipped(StoreLine l, bool value)
{
    const std::uint64_t bit = 1ull << l.block;
    if (value)
        l.page->flippedMask |= bit;
    else
        l.page->flippedMask &= ~bit;
}

} // namespace ladder
