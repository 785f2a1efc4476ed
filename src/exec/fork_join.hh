/**
 * @file
 * Fork-join over an index range: the one host-parallel primitive.
 *
 * A ForkJoin keeps threads - 1 helper threads asleep between jobs.
 * run(n, fn) publishes one job, wakes at most n - 1 helpers, and has
 * the calling thread and the woken helpers claim indices in order from
 * one atomic counter until all n are taken; it returns once every
 * call has returned. Claiming an index takes no lock and allocates
 * nothing, and a job of one index (or a ForkJoin of one thread) is the
 * caller looping on its own, with no wake at all.
 *
 * Two users: sweeps of independent runs (parallelMap below, one
 * ForkJoin per sweep) and the PDES engine's per-round drive windows
 * (exec::PdesRun, one ForkJoin per run, one job per round).
 */

#ifndef IDP_EXEC_FORK_JOIN_HH
#define IDP_EXEC_FORK_JOIN_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace idp {
namespace exec {

/** std::thread::hardware_concurrency(), never less than 1. */
unsigned hardwareThreads();

class ForkJoin
{
  public:
    /** @p threads counts the threads doing work, the caller included
     *  (clamped to >= 1): spawns threads - 1 helpers. */
    explicit ForkJoin(unsigned threads);

    /** Joins the helpers; must not race a run(). */
    ~ForkJoin();

    ForkJoin(const ForkJoin &) = delete;
    ForkJoin &operator=(const ForkJoin &) = delete;

    unsigned threads() const
    {
        return static_cast<unsigned>(helpers_.size()) + 1;
    }

    /**
     * Call @p fn(i) exactly once for each i in [0, @p n), on the
     * calling thread and the helpers; returns when every call has
     * returned, with their effects visible to the caller. @p fn must
     * not throw (an escaping exception terminates) and must not call
     * run() on this ForkJoin.
     */
    template <typename Fn>
    void run(std::size_t n, Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        runJob(n, const_cast<void *>(static_cast<const void *>(&fn)),
               [](void *f, std::size_t i) noexcept {
                   (*static_cast<F *>(f))(i);
               });
    }

  private:
    using Call = void (*)(void *, std::size_t) noexcept;

    ForkJoin() = default;

    void runJob(std::size_t n, void *fn, Call call);
    /** Claim and run indices of the current job until none remain. */
    void drain();
    void helperLoop();

    /** The current job: written under mutex_ before any ticket is
     *  handed out, read by ticket holders without the lock. */
    void *fn_ = nullptr;
    Call call_ = nullptr;
    std::size_t n_ = 0;
    std::atomic<std::size_t> next_{0}; ///< next unclaimed index

    std::mutex mutex_;
    std::condition_variable wake_; ///< helpers sleep here between jobs
    std::condition_variable done_; ///< run() waits here for the helpers
    unsigned tickets_ = 0; ///< helpers yet to join the current job
    unsigned pending_ = 0; ///< helpers yet to leave the current job
    bool stopping_ = false;

    std::vector<std::thread> helpers_;
};

/**
 * Evaluate @p fn(i) for every i in [0, @p n) on @p threads threads
 * (the caller included); result i lands in slot i, whatever thread ran
 * it. If calls throw, every index still runs, then the exception of
 * the lowest throwing index is rethrown — the same at any width, since
 * width 1 is the caller running 0 .. n - 1 in order.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, unsigned threads, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    ForkJoin(static_cast<unsigned>(std::min<std::size_t>(threads, n)))
        .run(n, [&](std::size_t i) {
            try {
                slots[i].emplace(fn(i));
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    std::vector<R> results;
    results.reserve(n);
    for (std::optional<R> &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

} // namespace exec
} // namespace idp

#endif // IDP_EXEC_FORK_JOIN_HH
