#include "exec/fork_join.hh"

namespace idp {
namespace exec {

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ForkJoin::ForkJoin(unsigned threads)
    : ForkJoin()
{
    // Delegating completes the object first, so if starting a helper
    // throws, the destructor joins the helpers already running.
    for (unsigned i = 1; i < threads; ++i)
        helpers_.emplace_back([this] { helperLoop(); });
}

ForkJoin::~ForkJoin()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &helper : helpers_)
        helper.join();
}

void
ForkJoin::runJob(std::size_t n, void *fn, Call call)
{
    const auto helpers = static_cast<unsigned>(
        std::min<std::size_t>(helpers_.size(), n == 0 ? 0 : n - 1));
    if (helpers == 0) {
        for (std::size_t i = 0; i < n; ++i)
            call(fn, i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = fn;
        call_ = call;
        n_ = n;
        next_.store(0, std::memory_order_relaxed);
        tickets_ = helpers;
        pending_ = helpers;
    }
    for (unsigned k = 0; k < helpers; ++k)
        wake_.notify_one();
    drain();
    // The job lives on the caller's stack: wait until every ticket
    // holder has stopped reading it.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
}

void
ForkJoin::drain()
{
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < n_; i = next_.fetch_add(1, std::memory_order_relaxed))
        call_(fn_, i);
}

void
ForkJoin::helperLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stopping_ || tickets_ > 0; });
        if (tickets_ == 0)
            return;
        --tickets_;
        lock.unlock();
        drain();
        lock.lock();
        if (--pending_ == 0)
            done_.notify_one();
    }
}

} // namespace exec
} // namespace idp
