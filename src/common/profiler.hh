/**
 * @file
 * Host-side self-profiling: scoped wall-clock spans and counters on
 * per-thread buffers, exported as a Chrome-trace-event timeline (see
 * sim/profile_export). Disabled by default; when disabled, an
 * instrumented site costs exactly one relaxed atomic load and a
 * predictable branch — no clock read, no allocation, no lock — so the
 * macros can live on hot paths (circuit solves, pool dispatch)
 * without perturbing production runs, and golden outputs stay
 * byte-identical.
 *
 * Threading model: each recording thread appends to its own buffer
 * (registered once under a mutex on first use, lock-free afterwards),
 * so recording never contends across threads. Buffers are owned by a
 * process-wide registry via shared_ptr, so spans survive the exit of
 * the worker threads that recorded them (sweep ThreadPools are
 * destroyed before export). enable()/disable()/collect() are control
 * operations for the coordinating thread; call them only while no
 * instrumented thread is inside a span (in LADDER: before a sweep
 * starts and after its pool has joined).
 */

#ifndef LADDER_COMMON_PROFILER_HH
#define LADDER_COMMON_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ladder::prof
{

namespace detail
{
/** The one global the disabled fast path touches. */
extern std::atomic<bool> g_enabled;
} // namespace detail

/** Whether recording is on: one relaxed load, the disabled cost. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Start collecting. Clears everything recorded by a previous
 * enable()..disable() session. Must not race instrumented threads.
 */
void enable();

/** Stop collecting (recorded data stays available to collect()). */
void disable();

/** Nanoseconds of steady time since the process-wide anchor. */
std::uint64_t nowNs();

/** One completed span on one thread. */
struct Span
{
    const char *name = nullptr; //!< literal or interned (stable)
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/** One timestamped counter sample on one thread. */
struct CounterSample
{
    const char *name = nullptr;
    std::uint64_t tsNs = 0;
    double value = 0.0;
};

/** Everything one thread recorded, snapshot by collect(). */
struct ThreadLog
{
    std::uint64_t threadId = 0; //!< small dense id (registration order)
    std::string name;           //!< from setCurrentThreadName ("" = none)
    std::vector<Span> spans;
    std::vector<CounterSample> counters;
};

/** Append a finished span to the calling thread's buffer. */
void recordSpan(const char *name, std::uint64_t startNs,
                std::uint64_t endNs);

/** Append a counter sample (now) to the calling thread's buffer. */
void recordCounter(const char *name, double value);

/**
 * Label the calling thread in collected logs and exports (workers use
 * their pthread name, e.g. "ladder-wk-3"). Safe to call when
 * profiling is disabled; the name sticks for later sessions.
 */
void setCurrentThreadName(const std::string &name);

/**
 * Return a stable, deduplicated `const char *` for a dynamic span
 * name (e.g. a per-run-cell label built at runtime). The storage
 * lives for the process lifetime. Takes a lock — intern once per
 * run, not per event.
 */
const char *internName(const std::string &name);

/**
 * Snapshot every thread's buffer (including threads that have since
 * exited), in registration order. Call only while no instrumented
 * thread is recording — in LADDER, after the sweep's pool joined.
 */
std::vector<ThreadLog> collect();

/** One thread's innermost open span right now (watchdog reports). */
struct ActiveSpan
{
    std::uint64_t threadId = 0;
    std::string threadName;
    const char *name = nullptr; //!< literal or interned (stable)
};

/**
 * The innermost span currently open on each thread that has one.
 * Unlike collect(), this is safe to call *while* instrumented threads
 * are recording: each thread publishes its current span name through
 * a relaxed atomic slot, so the telemetry watchdog can report where a
 * stalled run is stuck without stopping it.
 */
std::vector<ActiveSpan> activeSpans();

namespace detail
{
/** Publish @p name as the calling thread's open span; returns the
 *  previous one so nested Scopes restore it on exit. */
const char *enterSpan(const char *name);
void exitSpan(const char *previous);
} // namespace detail

/** Disable and drop all recorded data (tests). */
void reset();

/**
 * RAII span: samples the clock on entry and records on exit when
 * profiling was enabled at entry. A null name is allowed and records
 * nothing (lets callers thread optional dynamic labels through).
 */
class Scope
{
  public:
    explicit Scope(const char *name)
        : name_(enabled() ? name : nullptr),
          startNs_(name_ ? nowNs() : 0),
          previous_(name_ ? detail::enterSpan(name_) : nullptr)
    {
    }

    ~Scope()
    {
        if (name_) {
            detail::exitSpan(previous_);
            recordSpan(name_, startNs_, nowNs());
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name_;
    std::uint64_t startNs_;
    const char *previous_;
};

} // namespace ladder::prof

#define LADDER_PROF_CONCAT2(a, b) a##b
#define LADDER_PROF_CONCAT(a, b) LADDER_PROF_CONCAT2(a, b)

/** Scoped span covering the rest of the enclosing block. */
#define PROF_SCOPE(name) \
    ::ladder::prof::Scope LADDER_PROF_CONCAT(ladder_prof_scope_, \
                                             __LINE__)(name)

#endif // LADDER_COMMON_PROFILER_HH
