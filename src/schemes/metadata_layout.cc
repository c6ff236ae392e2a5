#include "metadata_layout.hh"

#include <algorithm>

#include "common/log.hh"

namespace ladder
{

MetadataLayout::MetadataLayout(const MemoryGeometry &geo,
                               std::uint64_t dataPages)
    : geo_(geo), map_(geo), dataPages_(dataPages)
{
    ladder_assert(dataPages_ > 0, "no data pages");
    reservedBase_ =
        static_cast<Addr>(dataPages_) * MemoryGeometry::pageBytes;
    // The low-precision sub-region sits after the per-page lines.
    Addr perPageBytes = static_cast<Addr>(dataPages_) * 2 * lineBytes;
    hybridLowBase_ = reservedBase_ + perPageBytes;
    Addr totalBytes = map_.totalPages() *
                      static_cast<Addr>(MemoryGeometry::pageBytes);
    ladder_assert(hybridLowBase_ +
                          (dataPages_ / 4 + 1) * lineBytes <=
                      totalBytes,
                  "metadata region does not fit: reduce data pages");
}

Addr
MetadataLayout::basicLine(std::uint64_t page, unsigned half) const
{
    ladder_assert(page < dataPages_, "page beyond data region");
    ladder_assert(half < 2, "basic metadata has two lines");
    return reservedBase_ + page * 2 * lineBytes + half * lineBytes;
}

Addr
MetadataLayout::estLine(std::uint64_t page) const
{
    ladder_assert(page < dataPages_, "page beyond data region");
    return reservedBase_ + page * lineBytes;
}

Addr
MetadataLayout::hybridLowLine(const BlockLocation &loc) const
{
    // Group id: same channel/rank/bank/mat-group, wordlines 4k..4k+3.
    // A mat group spans ceil(rows / 4) groups, so a last partial group
    // never aliases the next mat group's first.
    std::uint64_t group = loc.matGroup;
    group = group * ((geo_.matRows + 3) / 4) + loc.wordline / 4;
    group = group * geo_.ranksPerChannel * geo_.banksPerRank +
            (loc.rank * geo_.banksPerRank + loc.bank);
    group = group * geo_.channels + loc.channel;
    return hybridLowBase_ + group * lineBytes;
}

double
MetadataLayout::hybridOverhead(unsigned lowRows) const
{
    // Rows past the mat's last wordline do not exist: a mat with no
    // more than lowRows rows is low-precision throughout.
    double lowFrac = static_cast<double>(std::min(lowRows, geo_.matRows)) /
                     static_cast<double>(geo_.matRows);
    return lowFrac * (16.0 / 4096.0) + (1.0 - lowFrac) * estOverhead();
}

} // namespace ladder
