/**
 * @file
 * A small fixed-size thread pool for embarrassingly parallel sweeps.
 * Jobs are executed FIFO by a fixed set of workers (no work stealing,
 * so a single-worker pool runs jobs exactly in submission order).
 * Exceptions thrown by a job are captured in the std::future returned
 * by submit(); the pool itself never terminates on a job failure.
 *
 * Destruction drains: every job already submitted runs to completion
 * before the workers join, so futures handed out by submit() never
 * dangle.
 */

#ifndef LADDER_COMMON_THREAD_POOL_HH
#define LADDER_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ladder
{

class ThreadPool
{
  public:
    /**
     * Start @p threads workers (0 selects defaultJobs()). The pool is
     * fixed-size; it never grows or shrinks.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, finishes running jobs, joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; the returned future yields its result or
     * rethrows the exception it exited with.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        post([task]() { (*task)(); });
        return future;
    }

    /** Block until the queue is empty and no job is running. */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Default parallelism: std::thread::hardware_concurrency(), or 1
     * when the runtime cannot determine it.
     */
    static unsigned defaultJobs();

  private:
    void post(std::function<void()> job);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;  //!< queue became non-empty
    std::condition_variable allIdle_;    //!< queue drained, jobs done
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    unsigned active_ = 0; //!< jobs currently executing
    bool stopping_ = false;
};

} // namespace ladder

#endif // LADDER_COMMON_THREAD_POOL_HH
