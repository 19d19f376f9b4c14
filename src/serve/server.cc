#include "serve/server.hh"

#include <cstring>

#include "nn/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace spg {
namespace serve {

Server::Server(const NetConfig &config, ServerOptions options)
    : opts_(options), config_(config), queue_(options.queue_capacity)
{
    SPG_ASSERT(opts_.instances >= 1);
    SPG_ASSERT(opts_.max_batch >= 1);

    for (int i = 0; i < opts_.instances; ++i) {
        auto inst = std::make_unique<Instance>();
        inst->net =
            std::make_unique<Network>(config_, opts_.seed, true);
        inst->pool =
            std::make_unique<ThreadPool>(opts_.threads_per_instance);
        Geometry g = inst->net->inputGeometry();
        inst->staging = Tensor(Shape{opts_.max_batch, g.c, g.h, g.w});
        instances_.push_back(std::move(inst));
    }
    image_elems_ = instances_[0]->net->inputGeometry().elems();

    auto &m = obs::Metrics::global();
    latency_hist_ = &m.histogram("serve.latency_seconds");
    occupancy_hist_ = &m.histogram("serve.batch_occupancy");
    depth_gauge_ = &m.gauge("serve.queue_depth");
    accepted_ctr_ = &m.counter("serve.accepted");
    rejected_ctr_ = &m.counter("serve.rejected");
    completed_ctr_ = &m.counter("serve.completed");
    batches_ctr_ = &m.counter("serve.batches");
}

Server::~Server()
{
    stop();
}

void
Server::loadWeights(const std::string &checkpoint_path)
{
    // Each replica loads independently; a forward-only network bakes
    // any v2 prune mask into the weights during the load.
    for (auto &inst : instances_)
        loadCheckpoint(*inst->net, checkpoint_path);
}

void
Server::warmup()
{
    if (warmed_)
        return;
    if (opts_.tune) {
        // Measure once on instance 0's pool; every replica is
        // identical, so the plan transfers.
        TunerOptions topts;
        topts.reps = opts_.tuner_reps;
        Tuner tuner(topts);
        plans_.clear();
        plan_labels_.clear();
        auto convs = instances_[0]->net->convLayers();
        for (ConvLayer *conv : convs) {
            plans_.push_back(tuner.tuneServing(
                conv->spec(), opts_.max_batch, *instances_[0]->pool,
                conv->fusedRelu(), conv->weightSparsity()));
            plan_labels_.push_back(conv->name());
        }
    }

    std::vector<std::int64_t> buckets =
        Tuner::servingBuckets(opts_.max_batch);
    for (auto &inst : instances_) {
        // Plan the arena once at max_batch; every smaller coalesced
        // batch only rebuilds views into the same slabs.
        inst->net->reserveBatch(opts_.max_batch);
        Geometry g = inst->net->inputGeometry();
        std::memset(inst->staging.data(), 0,
                    static_cast<std::size_t>(opts_.max_batch) *
                        image_elems_ * sizeof(float));
        // One forward per bucket warms the weight-plan and sparse-plan
        // caches for every engine the plan can deploy, and leaves the
        // largest bucket's engines in place.
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            deployBucket(*inst, b);
            inst->cur_bucket = b;
            Tensor view = Tensor::view(
                Shape{buckets[b], g.c, g.h, g.w}, inst->staging.data());
            inst->net->forward(view, *inst->pool);
        }
    }
    warmed_ = true;
}

void
Server::start()
{
    SPG_ASSERT(!started_);
    if (!warmed_)
        warmup();
    started_ = true;
    for (int i = 0; i < opts_.instances; ++i)
        instances_[i]->thread =
            std::thread([this, i] { serveLoop(i); });
}

bool
Server::submit(Request &req)
{
    SPG_ASSERT(req.elems == image_elems_);
    req.submit_ns = nowNs();
    if (!queue_.tryPush(&req)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        rejected_ctr_->add();
        return false;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_ctr_->add();
    depth_gauge_->set(static_cast<double>(queue_.depth()));
    return true;
}

void
Server::drain()
{
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] {
        return completed_.load(std::memory_order_acquire) ==
               accepted_.load(std::memory_order_acquire);
    });
}

void
Server::stop()
{
    if (!started_)
        return;
    queue_.close();
    for (auto &inst : instances_)
        if (inst->thread.joinable())
            inst->thread.join();
    started_ = false;
}

ServerCounters
Server::counters() const
{
    ServerCounters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    c.completed = completed_.load(std::memory_order_relaxed);
    c.batches = batches_.load(std::memory_order_relaxed);
    return c;
}

void
Server::serveLoop(int idx)
{
    obs::setCurrentThreadName("serve" + std::to_string(idx));
    Instance &inst = *instances_[idx];
    std::vector<Request *> batch;
    batch.reserve(static_cast<std::size_t>(opts_.max_batch));
    std::int64_t budget_ns =
        static_cast<std::int64_t>(opts_.batch_budget_ms * 1e6);
    while (queue_.popBatch(static_cast<std::size_t>(opts_.max_batch),
                           budget_ns, batch) > 0) {
        depth_gauge_->set(static_cast<double>(queue_.depth()));
        serveBatch(inst, batch);
    }
}

void
Server::serveBatch(Instance &inst, std::vector<Request *> &batch)
{
    std::int64_t b = static_cast<std::int64_t>(batch.size());
    float *stage = inst.staging.data();
    for (std::int64_t r = 0; r < b; ++r)
        std::memcpy(stage + r * image_elems_, batch[r]->image,
                    static_cast<std::size_t>(image_elems_) *
                        sizeof(float));

    if (!plans_.empty()) {
        std::size_t bucket = plans_.front().bucketForBatch(b);
        if (bucket != inst.cur_bucket) {
            deployBucket(inst, bucket);
            inst.cur_bucket = bucket;
        }
    }

    Geometry g = inst.net->inputGeometry();
    Tensor view = Tensor::view(Shape{b, g.c, g.h, g.w}, stage);
    const Tensor &probs = inst.net->forward(view, *inst.pool);

    std::int64_t classes = inst.net->classes();
    const float *p = probs.data();
    std::int64_t done_ns = nowNs();
    for (std::int64_t r = 0; r < b; ++r) {
        const float *row = p + r * classes;
        int best = 0;
        for (std::int64_t c = 1; c < classes; ++c)
            if (row[c] > row[best])
                best = static_cast<int>(c);
        Request *req = batch[r];
        req->predicted = best;
        req->done_ns = done_ns;
        req->batch = b;
        latency_hist_->observe(req->latencySeconds());
        req->done.store(true, std::memory_order_release);
    }

    occupancy_hist_->observe(static_cast<double>(b));
    batches_.fetch_add(1, std::memory_order_relaxed);
    batches_ctr_->add();
    completed_ctr_->add(b);
    {
        std::lock_guard<std::mutex> lock(done_mu_);
        completed_.fetch_add(b, std::memory_order_release);
    }
    done_cv_.notify_all();
}

void
Server::deployBucket(Instance &inst, std::size_t bucket)
{
    if (plans_.empty())
        return;
    auto convs = inst.net->convLayers();
    SPG_ASSERT(convs.size() == plans_.size());
    for (std::size_t j = 0; j < convs.size(); ++j) {
        SPG_ASSERT(bucket < plans_[j].fp_engines.size());
        EngineAssignment a = convs[j]->engines();
        a.fp = plans_[j].fp_engines[bucket];
        convs[j]->setEngines(a);
    }
}

} // namespace serve
} // namespace spg
