/**
 * @file
 * Stress and concurrency tests for the thread pool and engine scratch
 * management: many pools alive at once, rapid create/destroy cycles,
 * and heavy small-task churn — the patterns the tuner and trainer
 * produce.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "conv/engines.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"

namespace spg {
namespace {

TEST(ThreadPoolStress, ManyPoolsCoexist)
{
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (int i = 0; i < 8; ++i)
        pools.push_back(std::make_unique<ThreadPool>(3));
    std::atomic<long> total{0};
    for (auto &pool : pools) {
        pool->parallelFor(100, [&](std::int64_t b, std::int64_t e, int) {
            total.fetch_add(e - b);
        });
    }
    EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolStress, RapidCreateDestroy)
{
    for (int round = 0; round < 30; ++round) {
        ThreadPool pool(2 + round % 3);
        std::atomic<int> hits{0};
        pool.parallelForDynamic(17, [&](std::int64_t, int) {
            hits.fetch_add(1);
        });
        ASSERT_EQ(hits.load(), 17) << round;
    }
}

TEST(ThreadPoolStress, TinyTasksHighChurn)
{
    ThreadPool pool(4);
    long total = 0;
    std::vector<long> partial(pool.threads(), 0);
    for (int round = 0; round < 500; ++round) {
        pool.parallelFor(3, [&](std::int64_t b, std::int64_t e, int w) {
            partial[w] += e - b;
        });
    }
    for (long p : partial)
        total += p;
    EXPECT_EQ(total, 1500);
}

TEST(ThreadPoolStress, EngineScratchSurvivesPoolChurn)
{
    // Engines keep per-thread scratch; destroying pools between calls
    // must never corrupt results (fresh worker threads get fresh
    // scratch, the calling thread reuses its own).
    ConvSpec spec{12, 12, 3, 5, 3, 3, 1, 1};
    Rng rng(3);
    Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor want(Shape{2, spec.nf, spec.outY(), spec.outX()});
    {
        ThreadPool pool(1);
        ReferenceEngine().forward(spec, in, w, want, pool);
    }
    auto engine = makeEngine("gemm-in-parallel");
    for (int round = 0; round < 10; ++round) {
        ThreadPool pool(1 + round % 4);
        Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
        engine->forward(spec, in, w, out, pool);
        ASSERT_TRUE(allClose(out, want, 1e-3f, 1e-4f)) << round;
    }
}

TEST(ThreadPoolStress, AdversariallySkewedCostsUnderChurn)
{
    // Work stealing under a pathological cost distribution: each round
    // one rotating item costs orders of magnitude more than the rest.
    // Every item must still run exactly once, and the telemetry item
    // counts must reconcile with the iteration space.
    ThreadPool pool(4);
    PoolStats before = pool.stats();
    const std::int64_t n = 48;
    const int rounds = 25;
    for (int round = 0; round < rounds; ++round) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelForDynamic(n, [&](std::int64_t i, int) {
            if (i == round % n) {
                volatile long long waste = 0;
                for (int k = 0; k < 300000; ++k)
                    waste = waste + k;
            }
            hits[i].fetch_add(1);
        });
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round=" << round;
    }
    PoolStats d = pool.stats().delta(before);
    EXPECT_EQ(d.regions, static_cast<std::uint64_t>(rounds));
    std::int64_t items = 0;
    for (const auto &w : d.workers)
        items += w.items;
    EXPECT_EQ(items, n * rounds);
}

TEST(ThreadPoolStress, NestedDataStructuresUnderDynamicScheduling)
{
    // Dynamic scheduling with per-worker accumulation: no lost or
    // double-counted items across many uneven rounds.
    ThreadPool pool(5);
    for (std::int64_t n : {1, 4, 5, 6, 99, 128}) {
        std::vector<std::vector<std::int64_t>> seen(pool.threads());
        pool.parallelForDynamic(n, [&](std::int64_t i, int w) {
            seen[w].push_back(i);
        });
        std::vector<char> hit(n, 0);
        std::int64_t count = 0;
        for (const auto &worker_items : seen) {
            for (std::int64_t i : worker_items) {
                ASSERT_GE(i, 0);
                ASSERT_LT(i, n);
                ASSERT_EQ(hit[i], 0) << "duplicate " << i;
                hit[i] = 1;
                ++count;
            }
        }
        EXPECT_EQ(count, n);
    }
}

} // namespace
} // namespace spg
