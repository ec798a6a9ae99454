/**
 * @file
 * A small fixed-size thread pool for the planner's emulator-feedback
 * search and the CLI's scenario sweep.
 *
 * The pool exposes one primitive, parallelFor(n, fn): invoke
 * fn(0..n-1), spread across the workers, and return when every index
 * has completed.  Callers own determinism: results must be written to
 * index-keyed slots so the outcome is independent of which worker ran
 * which index.  With one thread (or n == 1) the indices run inline on
 * the calling thread — no workers are ever touched — which makes the
 * threads=1 configuration trivially identical to a serial loop.
 *
 * A batch of n indices runs on the caller and the pool's first n - 1
 * workers only; the other workers wake and go back to waiting.  So
 * the threads that run a planner's four-trial waves, and make those
 * trials' heap allocations, are the same four whatever the pool
 * size: on a 4-CPU host a gpt-25.5b plan loop with a 16-thread pool
 * peaked at 8.2-8.4 MB RSS when any worker could claim a trial, and
 * at 5.5-5.6 MB (the 4-thread pool's 5.4 MB) with this rule.
 *
 * The calling thread never sleeps inside parallelFor: it runs indices
 * itself and then yields until the workers' last indices finish.  A
 * thread that blocks tends to resume on another (often slower) CPU,
 * which costs a planner more than the few microseconds of a batch's
 * tail; yielding rather than spinning keeps the CPU available to
 * other runnable threads.  Idle workers block between batches.
 *
 * Exceptions thrown by fn are captured; the first one (by index, not
 * by time of occurrence, so the error is deterministic too) is
 * rethrown from parallelFor on the calling thread after all indices
 * finish or are abandoned.
 *
 * PoolLease hands out one process-wide pool of hardwareThreads()
 * threads, created on first use, so repeated planning in one process
 * creates and joins no thread per plan.
 */

#ifndef MPRESS_UTIL_POOL_HH
#define MPRESS_UTIL_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace mpress {
namespace util {

/** Fixed-size worker pool; see the file comment for the contract. */
class ThreadPool
{
  public:
    /** @param threads worker count; values < 1 are clamped to 1.
     *  With 1 thread no worker threads are spawned at all. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute parallelFor bodies (including
     *  the calling thread). */
    int threads() const { return _threads; }

    /**
     * CPUs the calling thread may run on (its sched_getaffinity
     * mask), at least 1; the standard library's hardware count when
     * the mask cannot be read.  `taskset -c 0` therefore reads 1.
     * The planner's default thread count, and the clamp on any
     * requested count: on an oversubscribed machine extra workers
     * add wakeup/context-switch cost without any parallelism.  The
     * pool itself never clamps — tests and sweeps may deliberately
     * oversubscribe to exercise concurrency.
     */
    static int hardwareThreads();

    /**
     * Run @p fn for every index in [0, n).  Returns when all indices
     * complete.  The calling thread participates, so the pool makes
     * progress even under heavy oversubscription.  Not reentrant: a
     * pool must not be used from inside one of its own bodies.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    /** Body of worker @p index (1-based: the caller is index 0). */
    void workerLoop(std::size_t index);
    void runIndices();

    int _threads;
    std::vector<std::thread> _workers;

    std::mutex _mu;
    std::condition_variable _wake;  ///< idle workers wait for a batch

    // Current batch state (guarded by _mu; indices claimed under the
    // lock so a plain counter suffices and TSan sees clean handoffs).
    const std::function<void(std::size_t)> *_fn = nullptr;
    std::size_t _batchSize = 0;
    std::size_t _nextIndex = 0;
    std::size_t _remaining = 0;
    std::uint64_t _generation = 0;
    bool _shutdown = false;

    // First failure by index (smallest index wins).
    std::exception_ptr _error;
    std::size_t _errorIndex = 0;
};

/**
 * A pool of @p threads threads for one parallel job (one plan).  A
 * job that asks for hardwareThreads() threads, the planner's
 * default, leases the process-wide pool, which is created on first
 * use.  A job that asks for another count, or finds the process-wide
 * pool held by a concurrent job, gets a pool of its own; one thread
 * starts no worker at all.  Callers that write results to
 * index-keyed slots get the same results from either pool.
 */
class PoolLease
{
  public:
    explicit PoolLease(int threads);
    ~PoolLease();

    PoolLease(const PoolLease &) = delete;
    PoolLease &operator=(const PoolLease &) = delete;

    ThreadPool &pool() { return _shared != nullptr ? *_shared : *_own; }

    /** True when this lease holds the process-wide pool. */
    bool shared() const { return _shared != nullptr; }

  private:
    ThreadPool *_shared = nullptr;
    std::optional<ThreadPool> _own;
};

} // namespace util
} // namespace mpress

#endif // MPRESS_UTIL_POOL_HH
