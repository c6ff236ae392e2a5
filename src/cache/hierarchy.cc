#include "hierarchy.hh"

#include <cstring>

#include "common/log.hh"

namespace ladder
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : params_(params)
{
    ladder_assert(params.cores > 0, "hierarchy with zero cores");
    for (unsigned c = 0; c < params.cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            params.l1, "l1." + std::to_string(c)));
        l2_.push_back(std::make_unique<Cache>(
            params.l2, "l2." + std::to_string(c)));
    }
    l3_ = std::make_unique<Cache>(params.l3, "l3");
}

void
CacheHierarchy::writebackInto(Cache &level, Cache *below, Addr addr,
                              const LineData &data,
                              std::vector<Writeback> &writebacks)
{
    // A present line merges and is marked dirty, with no victim.
    CacheVictim victim = level.insert(addr, data, true);
    if (!victim.valid || !victim.dirty)
        return;
    if (below)
        writebackInto(*below, below == l3_.get() ? nullptr : l3_.get(),
                      victim.addr, victim.data, writebacks);
    else
        writebacks.emplace_back(victim.addr, victim.data);
}

void
CacheHierarchy::installClean(Cache &level, Cache *below, Addr addr,
                             const LineData &data,
                             std::vector<Writeback> &writebacks)
{
    // Never clobber an existing copy with a (possibly stale) clean
    // fill: whatever the level holds is at least as recent.
    if (level.contains(addr))
        return;
    CacheVictim victim = level.insert(addr, data, false);
    if (!victim.valid || !victim.dirty)
        return;
    if (below)
        writebackInto(*below, below == l3_.get() ? nullptr : l3_.get(),
                      victim.addr, victim.data, writebacks);
    else
        writebacks.emplace_back(victim.addr, victim.data);
}

std::optional<CacheHierarchy::ReadResult>
CacheHierarchy::read(unsigned core, Addr lineAddr,
                     std::vector<Writeback> &writebacks)
{
    ladder_assert(core < params_.cores, "core id out of range");
    if (LineData *line = l1_[core]->probe(lineAddr))
        return ReadResult{params_.l1HitNs, *line};

    if (LineData *line = l2_[core]->probe(lineAddr)) {
        LineData data = *line;
        // Promote a clean copy; dirtiness stays at the lower level.
        installClean(*l1_[core], l2_[core].get(), lineAddr, data,
                     writebacks);
        return ReadResult{params_.l2HitNs, data};
    }

    if (LineData *line = l3_->probe(lineAddr)) {
        LineData data = *line;
        installClean(*l2_[core], l3_.get(), lineAddr, data, writebacks);
        installClean(*l1_[core], l2_[core].get(), lineAddr, data,
                     writebacks);
        return ReadResult{params_.l3HitNs, data};
    }
    return std::nullopt;
}

std::optional<double>
CacheHierarchy::write(unsigned core, Addr lineAddr, unsigned offset,
                      const std::uint8_t *bytes,
                      std::vector<Writeback> &writebacks)
{
    ladder_assert(core < params_.cores, "core id out of range");
    ladder_assert(offset + 8 <= lineBytes, "store crosses line");

    if (LineData *line = l1_[core]->probeForWrite(lineAddr)) {
        std::memcpy(line->data() + offset, bytes, 8);
        return params_.l1HitNs;
    }
    if (LineData *line = l2_[core]->probe(lineAddr)) {
        LineData data = *line;
        std::memcpy(data.data() + offset, bytes, 8);
        // Allocate dirty in L1; the stale L2 copy stays and will be
        // overwritten by the eventual L1 writeback.
        writebackInto(*l1_[core], l2_[core].get(), lineAddr, data,
                      writebacks);
        return params_.l2HitNs;
    }
    if (LineData *line = l3_->probe(lineAddr)) {
        LineData data = *line;
        std::memcpy(data.data() + offset, bytes, 8);
        writebackInto(*l1_[core], l2_[core].get(), lineAddr, data,
                      writebacks);
        return params_.l3HitNs;
    }
    return std::nullopt;
}

void
CacheHierarchy::fill(unsigned core, Addr lineAddr, const LineData &data,
                     std::vector<Writeback> &writebacks)
{
    ladder_assert(core < params_.cores, "core id out of range");
    installClean(*l3_, nullptr, lineAddr, data, writebacks);
    installClean(*l2_[core], l3_.get(), lineAddr, data, writebacks);
    installClean(*l1_[core], l2_[core].get(), lineAddr, data,
                 writebacks);
}

std::vector<Writeback>
CacheHierarchy::flushAll()
{
    std::vector<Writeback> out;
    // Upper levels first so their dirty data lands in lower levels.
    for (unsigned c = 0; c < params_.cores; ++c) {
        for (auto &victim : l1_[c]->flush())
            writebackInto(*l2_[c], l3_.get(), victim.addr, victim.data,
                          out);
    }
    for (unsigned c = 0; c < params_.cores; ++c) {
        for (auto &victim : l2_[c]->flush())
            writebackInto(*l3_, nullptr, victim.addr, victim.data, out);
    }
    for (auto &victim : l3_->flush())
        out.emplace_back(victim.addr, victim.data);
    return out;
}

} // namespace ladder
