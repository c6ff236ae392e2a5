#include "cache.hh"

#include "common/log.hh"

namespace ladder
{

Cache::Cache(const CacheParams &params, std::string name)
    : name_(std::move(name)), ways_(params.ways)
{
    ladder_assert(params.ways > 0, "%s: zero ways", name_.c_str());
    std::size_t entries = params.sizeBytes / lineBytes;
    ladder_assert(entries >= params.ways && entries % params.ways == 0,
                  "%s: size/ways mismatch", name_.c_str());
    sets_ = static_cast<unsigned>(entries / params.ways);
    lines_.resize(entries);
}

void
Cache::regStats(StatGroup &group, const std::string &prefix)
{
    group.regScalar(prefix + "hits", &hits, "lookup hits");
    group.regScalar(prefix + "misses", &misses, "lookup misses");
    group.regScalar(prefix + "evictions", &evictions,
                    "lines displaced by insertion");
    group.regScalar(prefix + "dirty_evictions", &dirtyEvictions,
                    "displaced lines needing writeback");
}

unsigned
Cache::setIndex(Addr lineAddr) const
{
    return static_cast<unsigned>((lineAddr / lineBytes) % sets_);
}

Cache::Way *
Cache::find(Addr lineAddr)
{
    unsigned set = setIndex(lineAddr);
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = lines_[set * ways_ + w];
        if (way.valid && way.addr == lineAddr)
            return &way;
    }
    return nullptr;
}

const Cache::Way *
Cache::find(Addr lineAddr) const
{
    return const_cast<Cache *>(this)->find(lineAddr);
}

Cache::Way *
Cache::lookup(Addr lineAddr)
{
    Way *way = find(lineAddr);
    if (!way) {
        ++misses;
        return nullptr;
    }
    ++hits;
    way->lastUse = ++useCounter_;
    return way;
}

LineData *
Cache::probe(Addr lineAddr)
{
    Way *way = lookup(lineAddr);
    return way ? &way->data : nullptr;
}

LineData *
Cache::probeForWrite(Addr lineAddr)
{
    Way *way = lookup(lineAddr);
    if (!way)
        return nullptr;
    way->dirty = true;
    return &way->data;
}

bool
Cache::contains(Addr lineAddr) const
{
    return find(lineAddr) != nullptr;
}

bool
Cache::isDirty(Addr lineAddr) const
{
    const Way *way = find(lineAddr);
    ladder_assert(way, "%s: isDirty on absent line", name_.c_str());
    return way->dirty;
}

CacheVictim
Cache::insert(Addr lineAddr, const LineData &data, bool dirty)
{
    // One scan of the set finds a present copy, else the way to fill:
    // the first invalid way, or the least recently used one.
    CacheVictim victim;
    unsigned set = setIndex(lineAddr);
    Way *invalid = nullptr;
    Way *target = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = lines_[set * ways_ + w];
        if (!way.valid) {
            if (!invalid)
                invalid = &way;
            continue;
        }
        if (way.addr == lineAddr) {
            way.data = data;
            way.dirty = way.dirty || dirty;
            way.lastUse = ++useCounter_;
            return victim;
        }
        if (!target || way.lastUse < target->lastUse)
            target = &way;
    }
    if (invalid)
        target = invalid;
    if (target->valid) {
        ++evictions;
        victim.valid = true;
        victim.dirty = target->dirty;
        victim.addr = target->addr;
        victim.data = target->data;
        if (target->dirty)
            ++dirtyEvictions;
    }
    target->addr = lineAddr;
    target->valid = true;
    target->dirty = dirty;
    target->data = data;
    target->lastUse = ++useCounter_;
    return victim;
}

void
Cache::invalidate(Addr lineAddr)
{
    if (Way *way = find(lineAddr)) {
        way->valid = false;
        way->dirty = false;
        way->addr = invalidAddr;
    }
}

std::vector<CacheVictim>
Cache::flush()
{
    std::vector<CacheVictim> dirty;
    for (auto &way : lines_) {
        if (way.valid && way.dirty) {
            CacheVictim v;
            v.valid = true;
            v.dirty = true;
            v.addr = way.addr;
            v.data = way.data;
            dirty.push_back(v);
        }
        way.valid = false;
        way.dirty = false;
        way.addr = invalidAddr;
    }
    return dirty;
}

} // namespace ladder
