#include "common/parallel.hpp"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace netsession::parallel {

namespace {

struct Stats {
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> inline_jobs{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> chunks_stolen{0};
    std::atomic<std::uint64_t> merges{0};
    std::atomic<std::uint64_t> merge_order_checks{0};
};
Stats g_stats;

int resolve_default_threads() {
    if (const char* env = std::getenv("NS_THREADS")) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1 && v <= 1024) return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

// 0 = unresolved (first thread_count() call reads NS_THREADS).
std::atomic<int> g_thread_count{0};

/// True while this thread executes a task of a pool job (as the calling
/// participant or as a worker); a parallel call made then is nesting.
thread_local bool tl_in_task = false;

/// The process-wide pool. Workers are spawned lazily on the first job that
/// wants them and race for task indices off a shared atomic; task *shape* is
/// fixed by the caller, so racing only affects who runs what, never the
/// result. One job runs at a time: concurrent top-level callers queue on
/// run_mutex_. The caller participates and does not return until every
/// worker that joined the job has detached from it — the Job lives on the
/// caller's stack.
class Pool {
public:
    static Pool& instance() {
        static Pool pool;
        return pool;
    }

    void run(std::size_t count, void (*fn)(void*, std::size_t), void* ctx, int threads) {
        Job job;
        job.fn = fn;
        job.ctx = ctx;
        job.count = count;
        job.max_workers = threads - 1;
        // Nesting would deadlock on run_mutex_ (the outer job holds it);
        // concurrency from other threads just waits its turn.
        assert(!tl_in_task && "parallel primitives must not nest");
        std::lock_guard<std::mutex> turn(run_mutex_);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            ensure_workers(threads - 1);
            job_ = &job;
            ++generation_;
        }
        work_cv_.notify_all();

        // The caller is a full participant.
        std::uint64_t mine = 0;
        std::size_t task;
        tl_in_task = true;
        while ((task = job.next.fetch_add(1, std::memory_order_relaxed)) < count) {
            fn(ctx, task);
            ++mine;
            job.done.fetch_add(1, std::memory_order_acq_rel);
        }
        tl_in_task = false;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            // Retract the job so workers that have not joined yet never will,
            // then wait for the ones that did to finish and detach. After
            // this block no thread holds a pointer to `job`.
            job_ = nullptr;
            done_cv_.wait(lk, [&] {
                return active_ == 0 && job.done.load(std::memory_order_acquire) >= count;
            });
        }
        g_stats.chunks.fetch_add(count, std::memory_order_relaxed);
        g_stats.chunks_stolen.fetch_add(count - mine, std::memory_order_relaxed);
        g_stats.jobs.fetch_add(1, std::memory_order_relaxed);
    }

private:
    struct Job {
        void (*fn)(void*, std::size_t) = nullptr;
        void* ctx = nullptr;
        std::size_t count = 0;
        int max_workers = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
    };

    Pool() = default;
    ~Pool() {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    void ensure_workers(int wanted) {  // caller holds mutex_
        while (static_cast<int>(workers_.size()) < wanted) {
            const int index = static_cast<int>(workers_.size());
            workers_.emplace_back([this, index] { worker_loop(index); });
        }
    }

    void worker_loop(int index) {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mutex_);
        for (;;) {
            work_cv_.wait(lk, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
            if (stop_) return;
            seen = generation_;
            Job* job = job_;
            // A worker above the configured count sits this job out — the
            // result is identical either way; this just honours NS_THREADS
            // after a downward set_thread_count().
            if (index >= job->max_workers) continue;
            ++active_;
            lk.unlock();
            std::size_t task;
            tl_in_task = true;
            while ((task = job->next.fetch_add(1, std::memory_order_relaxed)) < job->count) {
                job->fn(job->ctx, task);
                job->done.fetch_add(1, std::memory_order_acq_rel);
            }
            tl_in_task = false;
            lk.lock();
            if (--active_ == 0) done_cv_.notify_all();
        }
    }

    std::mutex run_mutex_;  // held by the caller whose job owns the pool
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    Job* job_ = nullptr;       // guarded by mutex_
    std::uint64_t generation_ = 0;  // guarded by mutex_
    int active_ = 0;           // workers attached to the current job
    bool stop_ = false;
};

}  // namespace

int thread_count() noexcept {
    int n = g_thread_count.load(std::memory_order_relaxed);
    if (n == 0) {
        n = resolve_default_threads();
        int expected = 0;
        if (!g_thread_count.compare_exchange_strong(expected, n, std::memory_order_relaxed))
            n = expected;
    }
    return n;
}

void set_thread_count(int n) {
    g_thread_count.store(n <= 0 ? resolve_default_threads() : n, std::memory_order_relaxed);
}

StatsSnapshot stats() noexcept {
    StatsSnapshot s;
    s.jobs = g_stats.jobs.load(std::memory_order_relaxed);
    s.inline_jobs = g_stats.inline_jobs.load(std::memory_order_relaxed);
    s.chunks = g_stats.chunks.load(std::memory_order_relaxed);
    s.chunks_stolen = g_stats.chunks_stolen.load(std::memory_order_relaxed);
    s.merges = g_stats.merges.load(std::memory_order_relaxed);
    s.merge_order_checks = g_stats.merge_order_checks.load(std::memory_order_relaxed);
    s.threads = thread_count();
    return s;
}

void reset_stats() noexcept {
    g_stats.jobs.store(0, std::memory_order_relaxed);
    g_stats.inline_jobs.store(0, std::memory_order_relaxed);
    g_stats.chunks.store(0, std::memory_order_relaxed);
    g_stats.chunks_stolen.store(0, std::memory_order_relaxed);
    g_stats.merges.store(0, std::memory_order_relaxed);
    g_stats.merge_order_checks.store(0, std::memory_order_relaxed);
}

namespace detail {

void run_tasks(std::size_t count, void (*fn)(void*, std::size_t), void* ctx) {
    if (count == 0) return;
    const int threads = thread_count();
    if (threads <= 1 || count == 1) {
        // Inline execution — same task decomposition, same task order, no
        // pool. Identical results by rule 1 (task shape is caller-fixed).
        for (std::size_t t = 0; t < count; ++t) fn(ctx, t);
        g_stats.chunks.fetch_add(count, std::memory_order_relaxed);
        g_stats.inline_jobs.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Pool::instance().run(count, fn, ctx, threads);
}

void note_merges(std::uint64_t merges, std::uint64_t checks) noexcept {
    g_stats.merges.fetch_add(merges, std::memory_order_relaxed);
    g_stats.merge_order_checks.fetch_add(checks, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace netsession::parallel
