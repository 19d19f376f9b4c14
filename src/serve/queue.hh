/**
 * @file
 * Bounded MPMC request queue feeding the dynamic batcher.
 *
 * Producers (load generators, the CLI) tryPush() request pointers;
 * consumers (serving instances) popBatch(), which blocks for the first
 * request and then coalesces follow-ons until either the batch is full
 * or the oldest request's latency budget for batching runs out. The
 * budget is anchored at the oldest request's submit time — not at the
 * moment the consumer showed up — so a request never donates more than
 * `budget_ns` of its end-to-end latency to batch formation no matter
 * how late it was dequeued.
 *
 * The queue is bounded: when full, tryPush() fails immediately and the
 * caller counts a rejection. Under open-loop overload this is the
 * backpressure mechanism — latency stays bounded by queue depth
 * instead of growing without limit.
 */

#ifndef SPG_SERVE_QUEUE_HH
#define SPG_SERVE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.hh"

namespace spg {
namespace serve {

class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity);

    /**
     * Enqueue a request. @return false (without blocking) when the
     * queue is full or closed — the caller owns the rejection.
     */
    bool tryPush(Request *req);

    /**
     * Dequeue a coalesced batch into @p out (cleared first).
     *
     * Blocks until at least one request is available, then takes
     * what is queued and waits for arrivals until @p max_batch
     * requests are in hand or the oldest one has waited @p budget_ns
     * since submit. An expired budget stops only the waiting: what is
     * already queued still joins. A zero budget degenerates to "grab
     * whatever is already queued" and a max_batch of 1 to classic
     * one-request-at-a-time serving.
     *
     * @return out.size(); 0 only when the queue is closed and empty.
     */
    std::size_t popBatch(std::size_t max_batch, std::int64_t budget_ns,
                         std::vector<Request *> &out);

    /** Wake all waiters; subsequent tryPush() fails, popBatch() drains
     *  the remainder and then returns 0. */
    void close();

    std::size_t depth() const;
    std::size_t capacity() const { return capacity_; }
    bool closed() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable not_empty_;
    std::deque<Request *> items_;
    bool closed_ = false;
};

} // namespace serve
} // namespace spg

#endif // SPG_SERVE_QUEUE_HH
