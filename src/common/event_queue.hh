/**
 * @file
 * Discrete-event simulation kernel. A single EventQueue orders callbacks
 * by (tick, priority, sequence); components schedule std::function
 * callbacks and the kernel drives time forward.
 */

#ifndef LADDER_COMMON_EVENT_QUEUE_HH
#define LADDER_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "types.hh"

namespace ladder
{

/** Identifier handed back by schedule() so events can be descheduled. */
using EventId = std::uint64_t;

/**
 * The event queue at the heart of the simulator.
 *
 * Events at the same tick execute in (priority, insertion) order so that
 * behaviour is fully deterministic. Descheduling is lazy: cancelled
 * events stay in the heap but are skipped when popped.
 */
class EventQueue
{
  public:
    /** Default priority for ordinary events. */
    static constexpr int defaultPriority = 0;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p callback at absolute time @p when.
     *
     * @pre when >= now()
     * @return An id usable with deschedule().
     */
    EventId schedule(Tick when, std::function<void()> callback,
                     int priority = defaultPriority);

    /** Schedule @p callback @p delay ticks in the future. */
    EventId scheduleIn(Tick delay, std::function<void()> callback,
                       int priority = defaultPriority);

    /** Cancel a previously scheduled event. Safe to call twice. */
    void deschedule(EventId id);

    /** Whether any live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live events. */
    std::uint64_t pending() const { return live_; }

    /**
     * Run events until the queue is empty or time would pass @p limit.
     * Events scheduled exactly at @p limit are executed.
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Execute exactly one event if any; returns false when empty. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        EventId id;
        std::function<void()> callback;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return id > other.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::vector<EventId> cancelled_;
    Tick now_ = 0;
    EventId nextId_ = 1;
    std::uint64_t live_ = 0;
    std::uint64_t executed_ = 0;

    bool isCancelled(EventId id) const;
    void forgetCancelled(EventId id);
};

} // namespace ladder

#endif // LADDER_COMMON_EVENT_QUEUE_HH
