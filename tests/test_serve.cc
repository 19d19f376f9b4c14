/**
 * @file
 * Serving-runtime tests.
 *
 * The serving contract is that a forward-only network is a drop-in
 * replica of its training twin: bit-for-bit identical activations
 * across every FP engine family and every coalesced batch size
 * (including sizes never seen at tune time), with all BP state shed.
 * On top of that sit the dynamic batcher (queue coalescing semantics),
 * the arena reservation (ragged batches without replanning), the
 * pruned-checkpoint bake, the per-bucket serving plans, and the
 * end-to-end server.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "data/synthetic.hh"
#include "nn/checkpoint.hh"
#include "nn/network.hh"
#include "serve/loadgen.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"

using namespace spg;

namespace {

const char *kSmallNet = R"(
name: "serve-test"
input { channels: 2 height: 12 width: 12 classes: 4 }
layer { type: conv features: 4 kernel: 3 }
layer { type: relu }
layer { type: maxpool kernel: 2 stride: 2 }
layer { type: fc outputs: 4 }
layer { type: softmax }
)";

Tensor
randomBatch(std::int64_t batch, const Geometry &g, std::uint64_t seed)
{
    Tensor images(Shape{batch, g.c, g.h, g.w});
    Rng rng(seed);
    images.fillUniform(rng, -1.0f, 1.0f);
    return images;
}

void
expectBitEqual(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::int64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i])
            << what << " diverged at flat index " << i;
}

void
deployFp(Network &net, const std::string &engine)
{
    for (ConvLayer *conv : net.convLayers()) {
        EngineAssignment a = conv->engines();
        a.fp = engine;
        conv->setEngines(a);
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Forward-only replicas: bit-for-bit against the training network for
// every FP engine family at batch sizes 1..9 (fused epilogues on).

TEST(ServeForward, InferenceMatchesTrainingAcrossEnginesAndBatches)
{
    const char *engines[] = {
        "parallel-gemm", "gemm-in-parallel", "direct",
        "sparse-weights-direct",
    };
    NetConfig config = parseNetConfig(kSmallNet);
    ThreadPool pool(2);
    for (const char *engine : engines) {
        Network train_net(config, 7);
        Network serve_net(config, 7, /*inference_only=*/true);
        ASSERT_TRUE(serve_net.forwardOnly());
        ASSERT_FALSE(train_net.forwardOnly());
        deployFp(train_net, engine);
        deployFp(serve_net, engine);
        for (std::int64_t batch = 1; batch <= 9; ++batch) {
            Tensor images = randomBatch(
                batch, config.layers.empty()
                           ? Geometry{}
                           : train_net.inputGeometry(),
                100 + static_cast<std::uint64_t>(batch));
            const Tensor &expected = train_net.forward(images, pool);
            const Tensor &got = serve_net.forward(images, pool);
            expectBitEqual(got, expected,
                           std::string(engine) + " batch " +
                               std::to_string(batch));
        }
    }
}

// ---------------------------------------------------------------------------
// FP-only arena: no error buffers, strictly smaller footprint.

TEST(ServeArena, ForwardOnlyShedsBpState)
{
    NetConfig config = parseNetConfig(kSmallNet);
    ThreadPool pool(1);
    Network train_net(config, 3);
    Network serve_net(config, 3, /*inference_only=*/true);
    Tensor images = randomBatch(4, train_net.inputGeometry(), 5);
    train_net.forward(images, pool);
    serve_net.forward(images, pool);

    EXPECT_GT(train_net.errorBufferCount(), 0u);
    EXPECT_EQ(serve_net.errorBufferCount(), 0u);
    EXPECT_GT(train_net.arenaBytes(), 0);
    EXPECT_GT(serve_net.arenaBytes(), 0);
    EXPECT_LT(serve_net.arenaBytes(), train_net.arenaBytes());
}

TEST(ServeArenaDeath, TrainStepForbiddenOnForwardOnlyNetwork)
{
    NetConfig config = parseNetConfig(kSmallNet);
    // The whole statement runs in the death-test child so no pool
    // threads exist in the parent at fork time.
    auto run = [&config] {
        ThreadPool pool(1);
        Network serve_net(config, 3, /*inference_only=*/true);
        Tensor images = randomBatch(2, serve_net.inputGeometry(), 5);
        std::vector<int> labels{0, 1};
        serve_net.trainStep(images, labels, 0.1f, pool);
    };
    EXPECT_DEATH(run(), "forward-only");
}

// ---------------------------------------------------------------------------
// reserveBatch: one plan at max batch serves every ragged batch below
// it, bit-for-bit, without growing the arena.

TEST(ServeArena, ReserveBatchServesRaggedBatchesWithoutReplanning)
{
    NetConfig config = parseNetConfig(kSmallNet);
    ThreadPool pool(1);
    Network serve_net(config, 11, /*inference_only=*/true);
    serve_net.reserveBatch(9);
    std::int64_t planned_bytes = serve_net.arenaBytes();
    EXPECT_GT(planned_bytes, 0);

    for (std::int64_t batch : {1, 5, 9, 3, 8}) {
        Tensor images = randomBatch(
            batch, serve_net.inputGeometry(),
            40 + static_cast<std::uint64_t>(batch));
        const Tensor &got = serve_net.forward(images, pool);
        // The arena must not have been re-planned for the smaller
        // batch: the slabs keep their max-batch footprint.
        EXPECT_EQ(serve_net.arenaBytes(), planned_bytes)
            << "batch " << batch;
        // And the ragged-batch views must compute exactly what a
        // fresh identically-seeded network computes.
        Network fresh(config, 11, /*inference_only=*/true);
        const Tensor &expected = fresh.forward(images, pool);
        expectBitEqual(got, expected,
                       "ragged batch " + std::to_string(batch));
    }
}

// ---------------------------------------------------------------------------
// Pruned checkpoint into a forward-only net: mask baked into weights.

TEST(ServeCheckpoint, PruneMaskBakesIntoForwardOnlyLoad)
{
    NetConfig config = parseNetConfig(kSmallNet);
    ThreadPool pool(1);
    Network train_net(config, 13);
    auto convs = train_net.convLayers();
    ASSERT_FALSE(convs.empty());
    convs[0]->pruneToSparsity(0.5);
    ASSERT_FALSE(convs[0]->pruneMask()->empty());

    std::stringstream buf;
    saveCheckpoint(train_net, buf);

    Network serve_net(config, 99, /*inference_only=*/true);
    loadCheckpoint(serve_net, buf);

    auto serve_convs = serve_net.convLayers();
    // The mask is consumed by the load: weights carry the zeros.
    EXPECT_TRUE(serve_convs[0]->pruneMask()->empty());
    EXPECT_NEAR(serve_convs[0]->weightSparsity(), 0.5, 0.1);

    Tensor images = randomBatch(3, train_net.inputGeometry(), 21);
    const Tensor &expected = train_net.forward(images, pool);
    const Tensor &got = serve_net.forward(images, pool);
    expectBitEqual(got, expected, "pruned checkpoint serve");
}

// ---------------------------------------------------------------------------
// Queue semantics.

TEST(ServeQueue, CoalescesWhatIsQueuedUnderZeroBudget)
{
    serve::RequestQueue q(16);
    std::vector<serve::Request> reqs(5);
    for (auto &r : reqs) {
        r.submit_ns = serve::nowNs();
        ASSERT_TRUE(q.tryPush(&r));
    }
    std::vector<serve::Request *> out;
    EXPECT_EQ(q.popBatch(8, 0, out), 5u);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(ServeQueue, RespectsMaxBatch)
{
    serve::RequestQueue q(16);
    std::vector<serve::Request> reqs(5);
    for (auto &r : reqs) {
        r.submit_ns = serve::nowNs();
        ASSERT_TRUE(q.tryPush(&r));
    }
    std::vector<serve::Request *> out;
    EXPECT_EQ(q.popBatch(3, 0, out), 3u);
    EXPECT_EQ(out[0], &reqs[0]);  // FIFO
    EXPECT_EQ(q.popBatch(3, 0, out), 2u);
}

TEST(ServeQueue, BudgetTimeoutReturnsPartialBatch)
{
    serve::RequestQueue q(16);
    serve::Request r;
    r.submit_ns = serve::nowNs();
    ASSERT_TRUE(q.tryPush(&r));
    std::vector<serve::Request *> out;
    std::int64_t before = serve::nowNs();
    EXPECT_EQ(q.popBatch(8, 2'000'000 /* 2ms */, out), 1u);
    std::int64_t waited = serve::nowNs() - before;
    // Waited for batch-mates, but no longer than the budget (plus
    // generous scheduler slack).
    EXPECT_LT(waited, 500'000'000);
}

TEST(ServeQueue, RejectsWhenFullAndFailsAfterClose)
{
    serve::RequestQueue q(2);
    std::vector<serve::Request> reqs(3);
    for (auto &r : reqs)
        r.submit_ns = serve::nowNs();
    EXPECT_TRUE(q.tryPush(&reqs[0]));
    EXPECT_TRUE(q.tryPush(&reqs[1]));
    EXPECT_FALSE(q.tryPush(&reqs[2]));  // full

    std::vector<serve::Request *> out;
    q.close();
    EXPECT_FALSE(q.tryPush(&reqs[2]));   // closed
    EXPECT_EQ(q.popBatch(8, 0, out), 2u);  // drains the remainder
    EXPECT_EQ(q.popBatch(8, 0, out), 0u);  // closed and empty
}

// ---------------------------------------------------------------------------
// Serving buckets.

TEST(ServeBuckets, PowerOfTwoLadderCappedAtMaxBatch)
{
    EXPECT_EQ(Tuner::servingBuckets(8),
              (std::vector<std::int64_t>{1, 2, 4, 8}));
    EXPECT_EQ(Tuner::servingBuckets(6),
              (std::vector<std::int64_t>{1, 2, 4, 6}));
    EXPECT_EQ(Tuner::servingBuckets(1),
              (std::vector<std::int64_t>{1}));
}

TEST(ServeBuckets, BucketForBatchPicksSmallestCoveringBucket)
{
    ServingLayerPlan plan;
    plan.buckets = {1, 2, 4, 8};
    plan.fp_engines = {"a", "b", "c", "d"};
    EXPECT_EQ(plan.bucketForBatch(1), 0u);
    EXPECT_EQ(plan.bucketForBatch(2), 1u);
    EXPECT_EQ(plan.bucketForBatch(3), 2u);
    EXPECT_EQ(plan.bucketForBatch(5), 3u);
    EXPECT_EQ(plan.bucketForBatch(64), 3u);  // clamps to the largest
    EXPECT_EQ(plan.engineForBatch(3), "c");
}

// ---------------------------------------------------------------------------
// Serving-mode tuner: a plan per bucket, engines drawn from the
// FP-capable set.

TEST(ServeTuning, ServingPlanCoversEveryBucket)
{
    TunerOptions topts;
    topts.reps = 1;
    Tuner tuner(topts);
    ThreadPool pool(1);
    ConvSpec spec = ConvSpec::square(10, 4, 2, 3, 1);
    ServingLayerPlan plan =
        tuner.tuneServing(spec, 4, pool, /*fused_relu=*/true);
    ASSERT_EQ(plan.buckets, (std::vector<std::int64_t>{1, 2, 4}));
    ASSERT_EQ(plan.fp_engines.size(), 3u);
    ASSERT_EQ(plan.timings.size(), 3u);
    for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
        EXPECT_FALSE(plan.fp_engines[b].empty());
        EXPECT_FALSE(plan.timings[b].empty());
        bool chosen_among_measured = false;
        for (const EngineTiming &t : plan.timings[b])
            if (t.engine == plan.fp_engines[b])
                chosen_among_measured = true;
        EXPECT_TRUE(chosen_among_measured) << "bucket " << b;
    }
}

// ---------------------------------------------------------------------------
// End-to-end server.

TEST(ServeServer, CompletesEveryAcceptedRequest)
{
    NetConfig config = parseNetConfig(kSmallNet);
    serve::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.batch_budget_ms = 1.0;
    sopts.queue_capacity = 64;
    sopts.threads_per_instance = 1;
    sopts.tune = false;
    serve::Server server(config, sopts);

    SyntheticSpec dspec;
    dspec.channels = config.channels;
    dspec.height = config.height;
    dspec.width = config.width;
    dspec.classes = static_cast<int>(config.classes);
    dspec.count = 8;
    Dataset dataset = makeSynthetic(dspec);

    server.start();
    serve::LoadGenOptions lopts;
    lopts.rate_qps = 200;
    lopts.duration_s = 0.2;
    lopts.slo_ms = 1000;
    serve::LoadGenResult res =
        serve::runOpenLoop(server, dataset, lopts);
    server.stop();

    EXPECT_GT(res.submitted, 0);
    EXPECT_EQ(res.rejected, 0);
    EXPECT_EQ(res.completed, res.submitted);
    EXPECT_EQ(res.within_slo, res.completed);
    EXPECT_GT(res.qps, 0.0);
    EXPECT_GE(res.mean_batch, 1.0);

    auto counters = server.counters();
    EXPECT_EQ(counters.accepted, res.submitted);
    EXPECT_EQ(counters.completed, res.submitted);
    EXPECT_EQ(counters.rejected, 0);
    EXPECT_GT(counters.batches, 0);
}

TEST(ServeServer, CapacityProbeDrainsPrefilledQueue)
{
    NetConfig config = parseNetConfig(kSmallNet);
    serve::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.queue_capacity = 32;
    sopts.threads_per_instance = 1;
    sopts.tune = false;
    serve::Server server(config, sopts);

    SyntheticSpec dspec;
    dspec.channels = config.channels;
    dspec.height = config.height;
    dspec.width = config.width;
    dspec.classes = static_cast<int>(config.classes);
    dspec.count = 8;
    Dataset dataset = makeSynthetic(dspec);

    double qps = serve::capacityProbe(server, dataset, 32, 5);
    server.stop();
    EXPECT_GT(qps, 0.0);
    auto counters = server.counters();
    EXPECT_EQ(counters.accepted, 32);
    EXPECT_EQ(counters.completed, 32);
    // Saturation must actually coalesce: with the queue pre-filled the
    // mean batch has to beat one-request-at-a-time serving.
    EXPECT_LT(counters.batches, 32);
}

TEST(ServeServer, PredictionsMatchDirectForward)
{
    NetConfig config = parseNetConfig(kSmallNet);
    serve::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.queue_capacity = 16;
    sopts.threads_per_instance = 1;
    sopts.tune = false;
    sopts.seed = 31;
    serve::Server server(config, sopts);

    Geometry g = server.instanceNet(0).inputGeometry();
    Tensor images = randomBatch(4, g, 77);

    // Direct forward on an identically-seeded reference network.
    Network ref(config, 31, /*inference_only=*/true);
    ThreadPool pool(1);
    const Tensor &probs = ref.forward(images, pool);
    std::int64_t classes = ref.classes();

    std::vector<serve::Request> reqs(4);
    for (std::int64_t r = 0; r < 4; ++r) {
        reqs[r].id = r;
        reqs[r].image = images.data() + r * g.elems();
        reqs[r].elems = g.elems();
    }
    server.start();
    for (auto &req : reqs)
        ASSERT_TRUE(server.submit(req));
    server.drain();
    server.stop();

    for (std::int64_t r = 0; r < 4; ++r) {
        ASSERT_TRUE(reqs[r].done.load());
        const float *row = probs.data() + r * classes;
        int expected = 0;
        for (std::int64_t c = 1; c < classes; ++c)
            if (row[c] > row[expected])
                expected = static_cast<int>(c);
        EXPECT_EQ(reqs[r].predicted, expected) << "request " << r;
        EXPECT_GE(reqs[r].batch, 1);
        EXPECT_GT(reqs[r].done_ns, reqs[r].submit_ns);
    }
}
