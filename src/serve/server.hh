/**
 * @file
 * The multi-tenant inference serving runtime.
 *
 * One bounded request queue feeds N concurrent model instances. Each
 * instance owns a forward-only Network replica (no BP buffers, masks
 * or gradient state), its own fork-join ThreadPool, and a staging
 * tensor for the coalesced batch, so instances never contend on
 * anything but the queue lock. A dynamic batcher (RequestQueue::
 * popBatch) coalesces requests up to a latency budget or the max batch
 * and the whole batch runs as ONE fused forward pass through the
 * liveness-planned activation arena — reserved once at warmup for the
 * largest batch, so ragged dynamic batches never touch the allocator
 * on the request path.
 *
 * The serving scheduler is the spg-CNN tuner in serving mode: every
 * conv layer gets a per-batch-size-bucket FP engine plan measured at
 * the batch sizes the batcher actually produces, and the instance
 * re-deploys engines only when a batch crosses into a different
 * bucket. Engine choices at bucket 1 routinely differ from the
 * training-minibatch plan — small batches amortize less im2col/pack
 * overhead, so the crossovers move.
 */

#ifndef SPG_SERVE_SERVER_HH
#define SPG_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "nn/network.hh"
#include "serve/queue.hh"
#include "threading/thread_pool.hh"

namespace spg {

namespace obs {
class Counter;
class Gauge;
class Histogram;
} // namespace obs

namespace serve {

/** Serving runtime knobs. */
struct ServerOptions
{
    /** Concurrent model instances (each with its own pool + arena). */
    int instances = 1;
    /** Largest coalesced batch; also the arena reservation size. */
    std::int64_t max_batch = 8;
    /** How long a queued request may wait for batch-mates, measured
     *  from its submit time. 0 = grab only what is already queued. */
    double batch_budget_ms = 2.0;
    /** Queue bound; tryPush() past this is a rejection. */
    std::size_t queue_capacity = 256;
    /** Pool size per instance (0 = hardware concurrency). */
    int threads_per_instance = 1;
    /** Run the serving-mode tuner at warmup; without it every bucket
     *  serves on the layers' default engine assignment. */
    bool tune = true;
    /** Timed reps per tuner measurement. */
    int tuner_reps = 3;
    /** Weight-init seed for the replicas (same seed => identical
     *  replicas even without a checkpoint). */
    std::uint64_t seed = 1;
};

/** Aggregate serving counters (see also the obs registry). */
struct ServerCounters
{
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;
    std::int64_t completed = 0;
    std::int64_t batches = 0;
};

class Server
{
  public:
    Server(const NetConfig &config, ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Restore trained parameters into every replica. Forward-only
     * networks bake v2 prune masks into the weights on load, so a
     * pruned checkpoint serves with real zeros and no mask re-apply.
     */
    void loadWeights(const std::string &checkpoint_path);

    /**
     * Prepare the request path so the first real request pays none of
     * the one-time costs: run the serving-mode tuner (per conv layer,
     * per batch bucket), reserve each replica's activation arena at
     * max_batch, and run one forward per bucket per instance to warm
     * the weight-plan / sparse-plan caches. Call after loadWeights()
     * and before start().
     */
    void warmup();

    /** Launch the instance threads. */
    void start();

    /**
     * Stamp and enqueue a request. @return false when the queue is
     * full (the request is rejected, not blocked). The request must
     * stay alive until done is observed true.
     */
    bool submit(Request &req);

    /** Block until every accepted request has completed. */
    void drain();

    /** Close the queue and join the instance threads (idempotent). */
    void stop();

    /** Per-conv-layer serving plans (empty when options.tune off). */
    const std::vector<ServingLayerPlan> &servingPlans() const
    {
        return plans_;
    }
    /** Conv-layer labels parallel to servingPlans(). */
    const std::vector<std::string> &planLabels() const
    {
        return plan_labels_;
    }

    ServerCounters counters() const;
    RequestQueue &queue() { return queue_; }
    const ServerOptions &options() const { return opts_; }
    /** Replica i (tests; valid after construction). */
    Network &instanceNet(int i) { return *instances_[i]->net; }

  private:
    struct Instance
    {
        std::unique_ptr<Network> net;
        std::unique_ptr<ThreadPool> pool;
        Tensor staging;              ///< [max_batch][C][H][W]
        std::thread thread;
        std::size_t cur_bucket = static_cast<std::size_t>(-1);
    };

    void serveLoop(int idx);
    void serveBatch(Instance &inst, std::vector<Request *> &batch);
    /** Re-deploy conv FP engines for a bucket (no-op when unchanged
     *  or untuned). */
    void deployBucket(Instance &inst, std::size_t bucket);

    ServerOptions opts_;
    NetConfig config_;
    RequestQueue queue_;
    std::vector<std::unique_ptr<Instance>> instances_;
    std::vector<ServingLayerPlan> plans_;
    std::vector<std::string> plan_labels_;
    std::int64_t image_elems_ = 0;
    bool started_ = false;
    bool warmed_ = false;

    std::atomic<std::int64_t> accepted_{0};
    std::atomic<std::int64_t> rejected_{0};
    std::atomic<std::int64_t> completed_{0};
    std::atomic<std::int64_t> batches_{0};
    std::mutex done_mu_;
    std::condition_variable done_cv_;

    obs::Histogram *latency_hist_ = nullptr;
    obs::Histogram *occupancy_hist_ = nullptr;
    obs::Gauge *depth_gauge_ = nullptr;
    obs::Counter *accepted_ctr_ = nullptr;
    obs::Counter *rejected_ctr_ = nullptr;
    obs::Counter *completed_ctr_ = nullptr;
    obs::Counter *batches_ctr_ = nullptr;
};

} // namespace serve
} // namespace spg

#endif // SPG_SERVE_SERVER_HH
