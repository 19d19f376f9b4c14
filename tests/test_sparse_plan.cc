/**
 * @file
 * Tests for the encode-once sparse plan cache: hit/miss behaviour,
 * content-fingerprint staleness, invalidation, and the encoded plan's
 * fidelity to a direct CT-CSR build.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sparse/sparse_plan.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

/** Fresh per-test cache: tests must not see each other's plans. */
class SparsePlanCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        SparsePlanCache::global().clear();
        SparsePlanCache::global().resetStats();
    }
    void TearDown() override { SparsePlanCache::global().clear(); }
};

Tensor
randomErrors(std::int64_t batch, std::int64_t c, std::int64_t h,
             std::int64_t w, double sparsity, std::uint64_t seed)
{
    Tensor t(Shape{batch, c, h, w});
    Rng rng(seed);
    t.fillUniform(rng);
    t.sparsify(rng, sparsity);
    return t;
}

TEST_F(SparsePlanCacheTest, SecondGetIsAHit)
{
    Tensor eo = randomErrors(3, 8, 5, 6, 0.7, 21);
    ThreadPool pool(2);
    auto &cache = SparsePlanCache::global();

    auto a = cache.get(eo.data(), 3, 8, 5, 6, 4, pool);
    auto b = cache.get(eo.data(), 3, 8, 5, 6, 4, pool);
    EXPECT_EQ(a.get(), b.get());  // same plan object, not a copy
    SparsePlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.encodes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_GT(stats.encode_seconds, 0.0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(SparsePlanCacheTest, PlanMatchesDirectEncode)
{
    std::int64_t batch = 2, c = 12, h = 4, w = 7;
    Tensor eo = randomErrors(batch, c, h, w, 0.6, 22);
    ThreadPool pool(2);
    auto plan =
        SparsePlanCache::global().get(eo.data(), batch, c, h, w, 5, pool);

    ASSERT_EQ(plan->batch, batch);
    EXPECT_EQ(plan->rows, h * w);
    EXPECT_EQ(plan->cols, c);
    ASSERT_EQ(plan->images.size(), static_cast<std::size_t>(batch));
    std::int64_t nnz = 0;
    for (std::int64_t b = 0; b < batch; ++b) {
        auto direct = CtCsrMatrix::fromChw(eo.data() + b * c * h * w, c,
                                           h, w, 5);
        const CtCsrMatrix &cached = plan->images[b];
        ASSERT_EQ(cached.tileCount(), direct.tileCount()) << "image " << b;
        for (std::int64_t t = 0; t < direct.tileCount(); ++t) {
            EXPECT_EQ(cached.tile(t).rowPtr(), direct.tile(t).rowPtr());
            EXPECT_EQ(cached.tile(t).colIdx(), direct.tile(t).colIdx());
            EXPECT_EQ(cached.tile(t).vals(), direct.tile(t).vals());
        }
        nnz += direct.nnz();
    }
    EXPECT_EQ(plan->nnz(), nnz);
}

TEST_F(SparsePlanCacheTest, ContentChangeForcesReencode)
{
    Tensor eo = randomErrors(2, 6, 4, 4, 0.5, 23);
    ThreadPool pool(2);
    auto &cache = SparsePlanCache::global();

    auto a = cache.get(eo.data(), 2, 6, 4, 4, 3, pool);
    a.reset();  // release so the cache may recycle the storage

    eo[0] = eo[0] == 0.0f ? 1.0f : 0.0f;  // flip one element in place
    auto b = cache.get(eo.data(), 2, 6, 4, 4, 3, pool);
    EXPECT_EQ(cache.stats().encodes, 2);
    EXPECT_EQ(cache.stats().hits, 0);
    auto direct = CtCsrMatrix::fromChw(eo.data(), 6, 4, 4, 3);
    EXPECT_EQ(b->images[0].nnz(), direct.nnz());
    b.reset();

    // The per-image hashes must cover the LAST image too, and its mask:
    // one flipped byte in either re-encodes. A masked plan has its own
    // key, so prime it first.
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(eo.size()), 1);
    cache.get(eo.data(), 2, 6, 4, 4, 3, pool, mask.data());
    SparsePlanCache::Stats before = cache.stats();

    // Lowest byte of the last element's mantissa: a real but tiny
    // change, which a sampled hash could miss.
    reinterpret_cast<unsigned char *>(eo.data() + eo.size() - 1)[0] ^= 1;
    cache.get(eo.data(), 2, 6, 4, 4, 3, pool);
    EXPECT_EQ(cache.stats().encodes, before.encodes + 1)
        << "flipped EO byte in the last image must re-encode";

    cache.get(eo.data(), 2, 6, 4, 4, 3, pool, mask.data());  // re-prime
    before = cache.stats();
    mask.back() = 0;
    auto masked = cache.get(eo.data(), 2, 6, 4, 4, 3, pool, mask.data());
    EXPECT_EQ(cache.stats().encodes, before.encodes + 1)
        << "flipped mask byte in the last image must re-encode";
    EXPECT_EQ(cache.stats().hits, before.hits);
}

TEST_F(SparsePlanCacheTest, DifferentTileWidthsAreSeparatePlans)
{
    Tensor eo = randomErrors(1, 10, 3, 3, 0.4, 24);
    ThreadPool pool(1);
    auto &cache = SparsePlanCache::global();
    auto a = cache.get(eo.data(), 1, 10, 3, 3, 4, pool);
    auto b = cache.get(eo.data(), 1, 10, 3, 3, 10, pool);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->images[0].tileCount(), 3);
    EXPECT_EQ(b->images[0].tileCount(), 1);
    EXPECT_EQ(cache.stats().encodes, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(SparsePlanCacheTest, InvalidateDropsOnlyThatTensor)
{
    Tensor eo1 = randomErrors(1, 4, 3, 3, 0.5, 25);
    Tensor eo2 = randomErrors(1, 4, 3, 3, 0.5, 26);
    ThreadPool pool(1);
    auto &cache = SparsePlanCache::global();
    cache.get(eo1.data(), 1, 4, 3, 3, 2, pool);
    cache.get(eo2.data(), 1, 4, 3, 3, 2, pool);
    ASSERT_EQ(cache.size(), 2u);

    cache.invalidate(eo1.data());
    EXPECT_EQ(cache.size(), 1u);
    // eo2's plan survives: hit without a new encode.
    cache.get(eo2.data(), 1, 4, 3, 3, 2, pool);
    EXPECT_EQ(cache.stats().encodes, 2);
    EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(SparsePlanCacheTest, SharedPlanSurvivesInvalidation)
{
    // A consumer mid-replay keeps its plan alive through shared_ptr
    // ownership even if the cache entry is dropped underneath it.
    Tensor eo = randomErrors(1, 5, 4, 4, 0.5, 27);
    ThreadPool pool(1);
    auto &cache = SparsePlanCache::global();
    auto plan = cache.get(eo.data(), 1, 5, 4, 4, 5, pool);
    std::int64_t nnz = plan->nnz();
    cache.invalidate(eo.data());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(plan->nnz(), nnz);  // still fully readable
}

} // namespace
} // namespace spg
