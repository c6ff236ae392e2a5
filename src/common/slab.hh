/**
 * @file
 * A slab of reusable slots addressed by a 32-bit index. Event callbacks
 * and in-flight requests park here between scheduling and completion,
 * so the event heap can move small plain keys and a callback only needs
 * to capture its slot number. Freed slots are reused most recently
 * freed first; the slab never shrinks.
 */

#ifndef LADDER_COMMON_SLAB_HH
#define LADDER_COMMON_SLAB_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace ladder
{

/** Slot storage with a free list. */
template <typename T>
class Slab
{
  public:
    /** Park @p item in a free slot and return the slot's index. */
    std::uint32_t
    put(T item)
    {
        if (free_.empty()) {
            items_.push_back(std::move(item));
            return static_cast<std::uint32_t>(items_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        items_[slot] = std::move(item);
        return slot;
    }

    /**
     * Move the item out of @p slot and free the slot. The slot may be
     * reused by the next put(), so take the item before running code
     * that could put() again.
     */
    T
    take(std::uint32_t slot)
    {
        T item = std::move(items_[slot]);
        free_.push_back(slot);
        return item;
    }

  private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

} // namespace ladder

#endif // LADDER_COMMON_SLAB_HH
