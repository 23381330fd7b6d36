#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lls {

/// Fixed-size task-queue thread pool.
///
/// Tasks are submitted as callables and run on one of `size()` worker
/// threads; `submit` returns a `std::future` carrying the result (or the
/// exception the task threw). A pool of size 0 is a valid degenerate pool:
/// every task runs inline on the calling thread, which gives callers a
/// single code path for serial and concurrent execution. A task submitted
/// after shutdown has begun (the destructor is running) also runs inline,
/// so its future always becomes ready — it is never stranded in a queue
/// no worker will drain again.
///
/// `parallel_for` dispatches a half-open index range across the workers
/// with the *calling thread participating*, so a pool of size N applies
/// N+1 threads to the range. Indices are handed out through a shared
/// atomic cursor (work-stealing in the limit of chunk size 1): workers
/// that finish early keep pulling indices, so uneven per-index cost does
/// not serialize the loop. The first exception thrown by any iteration is
/// rethrown on the calling thread after the range completes; indices the
/// abort skipped are recorded in `aborted_indices()` so a partial fan-out
/// is never mistaken for a completed one.
///
/// `parallel_for` is reentrant: the body may call `parallel_for` on the
/// same pool (nested fan-out). The waiter never blocks while the queue holds
/// work — it *helps*, popping and running queued tasks until its own
/// helpers have finished — so nested calls cannot deadlock on workers
/// that are all waiting for helpers only they could run.
class ThreadPool {
public:
    explicit ThreadPool(std::size_t num_threads) {
        workers_.reserve(num_threads);
        for (std::size_t i = 0; i < num_threads; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto& w : workers_) w.join();
    }

    std::size_t size() const { return workers_.size(); }

    /// Number of jobs to use when the caller asked for "all of the machine".
    static std::size_t hardware_jobs() {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : n;
    }

    /// Schedules `fn` on a worker. The future reports the value or rethrows
    /// the exception. Runs inline when the pool has no workers or when
    /// shutdown has begun — a post-shutdown submission must still complete
    /// (callers blocked on the future would otherwise hang forever on a
    /// task nobody will ever pop).
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        if (!enqueue([task] { (*task)(); })) (*task)();
        return result;
    }

    /// Runs `body(i)` for every i in [begin, end). Blocks until the whole
    /// range is done; rethrows the first exception any iteration threw.
    /// Safe to call from inside a pool task (see class comment).
    template <typename F>
    void parallel_for(std::size_t begin, std::size_t end, F&& body) {
        if (begin >= end) return;
        const std::size_t span = end - begin;

        // Shared between the caller and its helper tasks. Helpers hold the
        // control block by shared_ptr: a helper that outlives this frame is
        // impossible (the caller waits for `pending` to reach 0), but the
        // shared_ptr keeps the teardown order trivially safe anyway.
        struct Control {
            std::atomic<std::size_t> cursor;
            std::atomic<std::size_t> pending{0};    // helpers not yet finished
            std::atomic<std::size_t> completed{0};  // body calls that returned
            std::atomic<std::size_t> failures{0};   // body calls that threw
            std::atomic<bool> failed{false};
            std::exception_ptr first_error;
            std::mutex error_mutex;
        };
        auto ctrl = std::make_shared<Control>();
        ctrl->cursor.store(begin, std::memory_order_relaxed);

        auto drain = [ctrl, end, &body]() {
            for (;;) {
                const std::size_t i = ctrl->cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= end || ctrl->failed.load(std::memory_order_relaxed)) return;
                try {
                    body(i);
                    ctrl->completed.fetch_add(1, std::memory_order_relaxed);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(ctrl->error_mutex);
                        if (!ctrl->first_error) ctrl->first_error = std::current_exception();
                    }
                    ctrl->failures.fetch_add(1, std::memory_order_relaxed);
                    ctrl->failed.store(true, std::memory_order_relaxed);
                }
            }
        };

        // One helper task per worker is enough: each helper drains the
        // shared cursor until the range is exhausted. `pending` is set
        // before any helper can run; the release decrement + acquire load
        // below publish each helper's writes to the waiting caller.
        const std::size_t num_helpers = workers_.empty() ? 0 : std::min(workers_.size(), span);
        ctrl->pending.store(num_helpers, std::memory_order_relaxed);
        for (std::size_t t = 0; t < num_helpers; ++t) {
            auto helper = [this, ctrl, drain] {
                drain();
                if (ctrl->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                    // Last helper out: the caller may be asleep in the
                    // help-while-waiting loop below. Taking the pool mutex
                    // before notifying pairs with the caller's predicate
                    // check, so the wakeup cannot be missed.
                    std::lock_guard<std::mutex> lock(mutex_);
                    wake_.notify_all();
                }
            };
            if (!enqueue(helper)) helper();
        }
        drain();

        // Help while waiting: instead of blocking on helper futures (which
        // deadlocks nested calls — every worker would wait on queued tasks
        // only a worker could run), keep popping and running queued tasks.
        // The popped task may belong to anyone: our own helpers, another
        // parallel_for's helpers, or a plain submit — all are safe to run
        // inline, and running them is exactly what guarantees global
        // progress. Only when the queue is empty does the caller sleep, and
        // then the work it waits for is already running on other threads.
        if (ctrl->pending.load(std::memory_order_acquire) != 0) {
            std::unique_lock<std::mutex> lock(mutex_);
            while (ctrl->pending.load(std::memory_order_acquire) != 0) {
                if (!queue_.empty()) {
                    std::function<void()> task = std::move(queue_.front());
                    queue_.pop_front();
                    lock.unlock();
                    run_contained(task);
                    lock.lock();
                    continue;
                }
                const auto idle_start = std::chrono::steady_clock::now();
                wake_.wait(lock, [this, &ctrl] {
                    return !queue_.empty() ||
                           ctrl->pending.load(std::memory_order_acquire) == 0;
                });
                idle_wait_nanos_.fetch_add(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - idle_start)
                            .count()),
                    std::memory_order_relaxed);
            }
        }

        if (ctrl->failed.load(std::memory_order_relaxed)) {
            // Everything neither completed nor thrown was silently skipped
            // by the early abort; record it so callers (and metrics) can
            // tell a partial fan-out from a finished round.
            aborted_indices_.fetch_add(
                span - ctrl->completed.load(std::memory_order_relaxed) -
                    ctrl->failures.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        if (ctrl->first_error) std::rethrow_exception(ctrl->first_error);
    }

    /// Total indices skipped by aborted (exception-cut) `parallel_for`
    /// ranges over this pool's lifetime.
    std::uint64_t aborted_indices() const {
        return aborted_indices_.load(std::memory_order_relaxed);
    }

    /// Total time threads spent asleep inside `parallel_for`'s
    /// help-while-waiting loop — waiting with an empty queue for helpers
    /// running elsewhere (the engine's `*.idle_wait` timers).
    std::uint64_t idle_wait_nanos() const {
        return idle_wait_nanos_.load(std::memory_order_relaxed);
    }

private:
    /// Queues `task` and wakes a worker. Returns false — task NOT queued —
    /// when the pool has no workers or shutdown has begun; the caller must
    /// run it inline.
    bool enqueue(std::function<void()> task) {
        if (workers_.empty()) return false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) return false;
            queue_.push_back(std::move(task));
        }
        wake_.notify_one();
        return true;
    }

    /// Runs a queued task with the worker-loop backstop: the callable
    /// wrappers capture user exceptions themselves (packaged_task futures,
    /// parallel_for's per-body catch), so anything escaping here is wrapper
    /// failure (e.g. std::bad_alloc storing an exception) and must not take
    /// down the running thread — stranded futures deadlock their waiters.
    static void run_contained(std::function<void()>& task) {
        try {
            task();
        } catch (...) {
        }
    }

    void worker_loop() {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty()) return;  // stopping_ and drained
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            run_contained(task);
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::atomic<std::uint64_t> aborted_indices_{0};
    std::atomic<std::uint64_t> idle_wait_nanos_{0};
};

}  // namespace lls
