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
#include <vector>

#include "slab.hh"
#include "types.hh"

namespace ladder
{

/**
 * The event queue at the heart of the simulator.
 *
 * Events at the same tick execute in (priority, insertion) order so that
 * behaviour is fully deterministic. The binary heap holds small plain
 * keys; each callback waits in a slab slot the key names, so reordering
 * the heap never moves a std::function. A callback that captures only a
 * pointer and a slot number fits std::function's inline buffer, so
 * scheduling it allocates nothing.
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
     */
    void schedule(Tick when, std::function<void()> callback,
                  int priority = defaultPriority);

    /** Schedule @p callback @p delay ticks in the future. */
    void scheduleIn(Tick delay, std::function<void()> callback,
                    int priority = defaultPriority);

    /** Whether no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::uint64_t pending() const { return heap_.size(); }

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
    struct Key
    {
        Tick when;
        std::uint64_t seq; //!< insertion order
        int priority;
        std::uint32_t slot; //!< callback's slab slot

        bool
        operator>(const Key &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    std::vector<Key> heap_;
    Slab<std::function<void()>> callbacks_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;

    /** Pop the earliest event, advance time to it, and run it. */
    void fireNext();
};

} // namespace ladder

#endif // LADDER_COMMON_EVENT_QUEUE_HH
