#include "util/pool.hh"

#include <sched.h>

#include <atomic>

namespace mpress {
namespace util {

int
ThreadPool::hardwareThreads()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        int usable = CPU_COUNT(&mask);
        if (usable > 0)
            return usable;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
    : _threads(threads < 1 ? 1 : threads)
{
    for (int i = 1; i < _threads; ++i)
        _workers.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        _shutdown = true;
    }
    _wake.notify_all();
    for (auto &w : _workers)
        w.join();
}

void
ThreadPool::runIndices()
{
    std::unique_lock<std::mutex> lock(_mu);
    while (_nextIndex < _batchSize) {
        std::size_t idx = _nextIndex++;
        const auto *fn = _fn;
        lock.unlock();
        std::exception_ptr err;
        try {
            (*fn)(idx);
        } catch (...) {
            err = std::current_exception();
        }
        lock.lock();
        if (err && (!_error || idx < _errorIndex)) {
            _error = err;
            _errorIndex = idx;
        }
        --_remaining;
    }
}

void
ThreadPool::workerLoop(std::size_t index)
{
    std::unique_lock<std::mutex> lock(_mu);
    std::uint64_t seen = 0;
    while (true) {
        // Worker i joins only batches of more than i indices, so a
        // batch of n runs on the caller and workers 1..n-1 (see the
        // file comment).
        _wake.wait(lock, [&] {
            return _shutdown ||
                   (_generation != seen && index < _batchSize &&
                    _nextIndex < _batchSize);
        });
        if (_shutdown)
            return;
        seen = _generation;
        lock.unlock();
        runIndices();
        lock.lock();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (_workers.empty() || n == 1) {
        // Serial fast path: identical to a plain loop, and the only
        // path taken at threads=1 (the determinism baseline).
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(_mu);
        _fn = &fn;
        _batchSize = n;
        _nextIndex = 0;
        _remaining = n;
        _error = nullptr;
        _errorIndex = 0;
        ++_generation;
    }
    _wake.notify_all();
    runIndices();  // the caller works too
    // Wait for the workers' last indices without sleeping (see the
    // file comment).
    std::unique_lock<std::mutex> lock(_mu);
    while (_remaining != 0) {
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
    }
    _fn = nullptr;
    _batchSize = 0;
    if (_error)
        std::rethrow_exception(_error);
}

namespace {

/** Set while a PoolLease holds the process-wide pool.  A flag rather
 *  than a mutex: a thread that already holds the pool may ask again
 *  (and then gets a pool of its own). */
std::atomic<bool> g_sharedHeld{false};

} // namespace

PoolLease::PoolLease(int threads)
{
    if (threads > 1 && threads == ThreadPool::hardwareThreads() &&
        !g_sharedHeld.exchange(true, std::memory_order_acquire)) {
        // Built by the first lease that wants it and never destroyed:
        // exit() then joins no worker, even when a worker calls it.
        static ThreadPool *const shared = new ThreadPool(threads);
        if (shared->threads() == threads) {
            _shared = shared;
            return;
        }
        // The affinity mask changed since the pool was built.
        g_sharedHeld.store(false, std::memory_order_release);
    }
    _own.emplace(threads);
}

PoolLease::~PoolLease()
{
    if (_shared != nullptr)
        g_sharedHeld.store(false, std::memory_order_release);
}

} // namespace util
} // namespace mpress
