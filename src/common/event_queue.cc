#include "event_queue.hh"

#include <algorithm>

#include "log.hh"

namespace ladder
{

void
EventQueue::schedule(Tick when, std::function<void()> callback,
                     int priority)
{
    ladder_assert(when >= now_,
                  "scheduling event in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    const std::uint32_t slot = callbacks_.put(std::move(callback));
    heap_.push_back(Key{when, nextSeq_++, priority, slot});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
}

void
EventQueue::scheduleIn(Tick delay, std::function<void()> callback,
                       int priority)
{
    schedule(now_ + delay, std::move(callback), priority);
}

void
EventQueue::fireNext()
{
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
    const Key key = heap_.back();
    heap_.pop_back();
    // Take the callback out first: it may schedule events that reuse
    // its slot.
    std::function<void()> callback = callbacks_.take(key.slot);
    now_ = key.when;
    ++executed_;
    callback();
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
        fireNext();
        ++count;
    }
    if (heap_.empty() && now_ < limit && limit != maxTick)
        now_ = limit;
    return count;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    fireNext();
    return true;
}

} // namespace ladder
