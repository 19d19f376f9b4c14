#include "serve/queue.hh"

#include <chrono>

namespace spg {
namespace serve {

namespace {

std::chrono::steady_clock::time_point
timePointFromNs(std::int64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(ns)));
}

} // namespace

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {}

bool
RequestQueue::tryPush(Request *req)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(req);
    }
    not_empty_.notify_one();
    return true;
}

std::size_t
RequestQueue::popBatch(std::size_t max_batch, std::int64_t budget_ns,
                       std::vector<Request *> &out)
{
    out.clear();
    if (max_batch == 0)
        return 0;

    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty())
        return 0;  // closed and drained

    out.push_back(items_.front());
    items_.pop_front();

    // Coalesce: the deadline belongs to the oldest request in the
    // batch, so time already spent queued counts against the budget.
    // An expired budget only ends the waiting: requests already queued
    // still join, up to max_batch.
    auto deadline = timePointFromNs(out.front()->submit_ns + budget_ns);
    while (out.size() < max_batch) {
        if (items_.empty()) {
            if (closed_ || budget_ns <= 0)
                break;
            if (not_empty_.wait_until(lock, deadline, [&] {
                    return closed_ || !items_.empty();
                })) {
                if (items_.empty())
                    break;  // woken by close
            } else {
                break;  // budget exhausted
            }
        }
        out.push_back(items_.front());
        items_.pop_front();
    }
    return out.size();
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    not_empty_.notify_all();
}

std::size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

} // namespace serve
} // namespace spg
