#include "event_queue.hh"

#include <algorithm>

#include "log.hh"

namespace ladder
{

EventId
EventQueue::schedule(Tick when, std::function<void()> callback,
                     int priority)
{
    ladder_assert(when >= now_,
                  "scheduling event in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    EventId id = nextId_++;
    heap_.push(Entry{when, priority, id, std::move(callback)});
    ++live_;
    return id;
}

EventId
EventQueue::scheduleIn(Tick delay, std::function<void()> callback,
                       int priority)
{
    return schedule(now_ + delay, std::move(callback), priority);
}

void
EventQueue::deschedule(EventId id)
{
    if (isCancelled(id))
        return;
    cancelled_.push_back(id);
    if (live_ > 0)
        --live_;
}

bool
EventQueue::isCancelled(EventId id) const
{
    return std::find(cancelled_.begin(), cancelled_.end(), id) !=
           cancelled_.end();
}

void
EventQueue::forgetCancelled(EventId id)
{
    auto it = std::find(cancelled_.begin(), cancelled_.end(), id);
    if (it != cancelled_.end())
        cancelled_.erase(it);
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!heap_.empty()) {
        const Entry &top = heap_.top();
        if (top.when > limit)
            break;
        if (isCancelled(top.id)) {
            forgetCancelled(top.id);
            heap_.pop();
            continue;
        }
        // Copy out before popping; the callback may schedule new events.
        Entry entry = top;
        heap_.pop();
        --live_;
        now_ = entry.when;
        ++executed_;
        ++count;
        entry.callback();
    }
    if (heap_.empty() && now_ < limit && limit != maxTick)
        now_ = limit;
    return count;
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        const Entry &top = heap_.top();
        if (isCancelled(top.id)) {
            forgetCancelled(top.id);
            heap_.pop();
            continue;
        }
        Entry entry = top;
        heap_.pop();
        --live_;
        now_ = entry.when;
        ++executed_;
        entry.callback();
        return true;
    }
    return false;
}

} // namespace ladder
