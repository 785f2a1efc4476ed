#include "exec/thread_pool.hh"

#include <algorithm>

namespace idp {
namespace exec {

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = std::max(1u, threads);
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<WorkQueue>());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::WorkQueue::pushBack(Task task)
{
    if (count == ring.size()) {
        std::vector<Task> grown(std::max<std::size_t>(8, 2 * count));
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = std::move(ring[(head + i) % ring.size()]);
        ring = std::move(grown);
        head = 0;
    }
    ring[(head + count) % ring.size()] = std::move(task);
    ++count;
}

ThreadPool::Task
ThreadPool::WorkQueue::popFront()
{
    Task task = std::move(ring[head]);
    head = (head + 1) % ring.size();
    --count;
    return task;
}

ThreadPool::Task
ThreadPool::WorkQueue::popBack()
{
    --count;
    return std::move(ring[(head + count) % ring.size()]);
}

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
ThreadPool::submit(std::function<void()> task)
{
    std::size_t victim;
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        ++unfinished_;
        victim = nextQueue_++ % queues_.size();
    }
    {
        std::lock_guard<std::mutex> qlock(queues_[victim]->mutex);
        queues_[victim]->pushBack(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        ++queued_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    idleCv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool
ThreadPool::tryGetTask(std::size_t self, Task &out)
{
    // Own queue first, front (most recently assigned locality) ...
    {
        WorkQueue &mine = *queues_[self];
        std::lock_guard<std::mutex> qlock(mine.mutex);
        if (mine.count != 0) {
            out = mine.popFront();
            return true;
        }
    }
    // ... then steal from the back of the other workers' queues.
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        WorkQueue &theirs = *queues_[(self + i) % queues_.size()];
        std::lock_guard<std::mutex> qlock(theirs.mutex);
        if (theirs.count != 0) {
            out = theirs.popBack();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        Task task;
        if (tryGetTask(self, task)) {
            {
                std::lock_guard<std::mutex> lock(stateMutex_);
                --queued_;
            }
            task();
            bool drained;
            {
                std::lock_guard<std::mutex> lock(stateMutex_);
                drained = (--unfinished_ == 0);
            }
            if (drained)
                idleCv_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lock(stateMutex_);
        workCv_.wait(lock,
                     [this] { return stopping_ || queued_ > 0; });
        if (stopping_ && queued_ == 0)
            return;
    }
}

} // namespace exec
} // namespace idp
