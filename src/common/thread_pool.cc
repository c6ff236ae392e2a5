#include "thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/metrics.hh"
#include "common/profiler.hh"

namespace ladder
{

namespace
{

metrics::MetricId
poolTasksMetric()
{
    static const metrics::MetricId id =
        metrics::registerCounter("pool.tasks");
    return id;
}

metrics::MetricId
poolIdleNsMetric()
{
    static const metrics::MetricId id =
        metrics::registerCounter("pool.idle_ns");
    return id;
}

/**
 * Name the calling worker for profiles, TSan reports, and `top -H`.
 * pthread names are capped at 15 chars, so "ladder-wk-N" fits up to
 * four index digits.
 */
void
nameWorkerThread(unsigned index)
{
    char name[16];
    std::snprintf(name, sizeof(name), "ladder-wk-%u", index);
#if defined(__linux__)
    pthread_setname_np(pthread_self(), name);
#endif
    prof::setCurrentThreadName(name);
}

} // namespace

unsigned
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(hw, 1u);
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultJobs();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this, i]() {
            nameWorkerThread(i);
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this]() {
        return queue_.empty() && active_ == 0;
    });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            // Clock reads only when telemetry is live; the disabled
            // cost stays one relaxed load per dequeue.
            const bool timed = metrics::enabled();
            const auto idleStart =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this]() {
                return stopping_ || !queue_.empty();
            });
            if (timed) {
                metrics::add(
                    poolIdleNsMetric(),
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() -
                            idleStart)
                            .count()));
            }
            // Drain-on-stop: only exit once the queue is empty.
            if (queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        // A packaged_task captures any exception into its future, so
        // job() never throws out of the worker.
        {
            PROF_SCOPE("pool_task");
            if (metrics::enabled())
                metrics::add(poolTasksMetric());
            job();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                allIdle_.notify_all();
        }
    }
}

} // namespace ladder
