/**
 * @file
 * Tests for the tensor container and data-layout transforms.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "tensor/layout.hh"
#include "tensor/tensor.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"

namespace spg {
namespace {

TEST(Shape, BasicProperties)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[1], 3);
    EXPECT_EQ(s[2], 4);
    EXPECT_EQ(s[3], 1);
    EXPECT_EQ(s.elements(), 24);
    EXPECT_EQ(s.str(), "2x3x4");
    EXPECT_EQ(s, (Shape{2, 3, 4}));
    EXPECT_NE(s, (Shape{2, 3, 4, 1}));  // different rank
    EXPECT_NE(s, (Shape{2, 3, 5}));
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t(Shape{3, 5});
    EXPECT_EQ(t.maxAbs(), 0.0f);
    EXPECT_EQ(t.size(), 15);
    EXPECT_DOUBLE_EQ(t.sparsity(), 1.0);
}

TEST(Tensor, IndexedAccessMatchesFlat)
{
    Tensor t(Shape{2, 3, 4, 5});
    std::iota(t.data(), t.data() + t.size(), 0.0f);
    EXPECT_EQ(t.at(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(t.at(1, 2, 3, 4), static_cast<float>(t.size() - 1));
    EXPECT_EQ(t.at(0, 1, 2, 3), static_cast<float>((1 * 4 + 2) * 5 + 3));

    Tensor t3(Shape{3, 4, 5});
    std::iota(t3.data(), t3.data() + t3.size(), 0.0f);
    EXPECT_EQ(t3.at(1, 2, 3), static_cast<float>((1 * 4 + 2) * 5 + 3));

    Tensor t2(Shape{4, 5});
    std::iota(t2.data(), t2.data() + t2.size(), 0.0f);
    EXPECT_EQ(t2.at(2, 3), 13.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a(Shape{4});
    a.fill(1.0f);
    Tensor b = a.clone();
    b[0] = 5.0f;
    EXPECT_EQ(a[0], 1.0f);
    EXPECT_EQ(b[1], 1.0f);
}

TEST(Tensor, SparsifyHitsTarget)
{
    Tensor t(Shape{100, 100});
    Rng rng(11);
    t.fillUniform(rng, 0.5f, 1.5f);  // no natural zeros
    EXPECT_DOUBLE_EQ(t.sparsity(), 0.0);
    t.sparsify(rng, 0.85);
    EXPECT_NEAR(t.sparsity(), 0.85, 0.02);
}

TEST(Tensor, AllCloseAndMaxAbsDiff)
{
    Tensor a(Shape{5});
    Tensor b(Shape{5});
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_TRUE(allClose(a, b));
    b[2] = 1.1f;
    EXPECT_FALSE(allClose(a, b, 1e-3f, 1e-3f));
    EXPECT_NEAR(maxAbsDiff(a, b), 0.1f, 1e-6f);
    EXPECT_FALSE(allClose(a, Tensor(Shape{6})));
    // A NaN never compares close: an engine that writes NaN must fail
    // the oracle, not pass it.
    b.fill(1.0f);
    b[3] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(maxAbsDiff(a, b)));
    EXPECT_TRUE(std::isnan(maxAbsDiff(b, a)));
    EXPECT_FALSE(allClose(a, b));
    EXPECT_FALSE(allClose(b, a));
}

TEST(Tensor, FillGaussianStatistics)
{
    Tensor t(Shape{200, 200});
    Rng rng(12);
    t.fillGaussian(rng, 2.0f);
    double sum = 0, sum2 = 0;
    for (std::int64_t i = 0; i < t.size(); ++i) {
        sum += t[i];
        sum2 += static_cast<double>(t[i]) * t[i];
    }
    double mean = sum / t.size();
    double var = sum2 / t.size() - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Layout, Transpose2d)
{
    std::int64_t r = 37, c = 53;
    Tensor a(Shape{r, c});
    Rng rng(13);
    a.fillUniform(rng);
    Tensor b(Shape{c, r});
    transpose2d(a.data(), r, c, b.data());
    for (std::int64_t i = 0; i < r; ++i)
        for (std::int64_t j = 0; j < c; ++j)
            ASSERT_EQ(a.at(i, j), b.at(j, i));
}

TEST(Layout, Permute4Identity)
{
    Tensor a(Shape{2, 3, 4, 5});
    Rng rng(14);
    a.fillUniform(rng);
    Tensor b(Shape{2, 3, 4, 5});
    permute4(a.data(), {2, 3, 4, 5}, {0, 1, 2, 3}, b.data());
    EXPECT_EQ(maxAbsDiff(a, b), 0.0f);
}

TEST(Layout, Permute4MatchesManual)
{
    Tensor a(Shape{2, 3, 4, 5});
    std::iota(a.data(), a.data() + a.size(), 0.0f);
    Tensor b(Shape{5, 3, 2, 4});
    permute4(a.data(), {2, 3, 4, 5}, {3, 1, 0, 2}, b.data());
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            for (std::int64_t k = 0; k < 4; ++k)
                for (std::int64_t l = 0; l < 5; ++l)
                    ASSERT_EQ(b.at(l, j, i, k), a.at(i, j, k, l));
}

TEST(Layout, ChwHwcRoundTrip)
{
    std::int64_t c = 7, h = 9, w = 11;
    Tensor a(Shape{c, h, w});
    Rng rng(15);
    a.fillUniform(rng);
    Tensor hwc(Shape{h, w, c});
    Tensor back(Shape{c, h, w});
    chwToHwc(a.data(), c, h, w, hwc.data());
    // Spot-check semantics: hwc[y][x][ch] == chw[ch][y][x].
    EXPECT_EQ(hwc.at(2, 3, 4), a.at(4, 2, 3));
    hwcToChw(hwc.data(), h, w, c, back.data());
    EXPECT_EQ(maxAbsDiff(a, back), 0.0f);
}

TEST(Layout, WeightsKernelRowsRoundTrip)
{
    std::int64_t nf = 4, nc = 3, fy = 2, fx = 5, pitch = 16;
    Tensor w(Shape{nf, nc, fy, fx});
    Rng rng(16);
    w.fillUniform(rng);
    Tensor rows = Tensor::uninitialized(Shape{nf, fy, pitch});
    weightsToKernelRows(w.data(), nf, nc, fy, fx, pitch, rows.data());
    // r = kx * nc + c, channel fastest; the pad lanes are zero.
    EXPECT_EQ(rows.at(2, 1, 4 * nc + 0), w.at(2, 0, 1, 4));
    EXPECT_EQ(rows.at(3, 0, 1 * nc + 2), w.at(3, 2, 0, 1));
    for (std::int64_t r = fx * nc; r < pitch; ++r)
        EXPECT_EQ(rows.at(1, 1, r), 0.0f) << r;
    Tensor back(Shape{nf, nc, fy, fx});
    weightsFromKernelRows(rows.data(), nf, nc, fy, fx, pitch, back.data());
    EXPECT_EQ(maxAbsDiff(w, back), 0.0f);
}

// ---------------------------------------------------------------------
// DeterminismLiveCount: the pool-parallel live count must equal a
// scalar `!= 0.0f` reference at every pool size, for sizes below,
// at and off a multiple of the participant count.

std::int64_t
scalarLiveCount(const float *x, const std::uint8_t *mask, std::int64_t n)
{
    std::int64_t live = 0;
    for (std::int64_t i = 0; i < n; ++i)
        if ((mask == nullptr || mask[i] != 0) && x[i] != 0.0f)
            ++live;
    return live;
}

/** A mix of zeros, negative zeros, NaNs, denormals and normal values. */
std::vector<float>
liveCountValues(std::int64_t n, std::uint64_t seed)
{
    const float kinds[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::denorm_min(),
                           -1.5f,
                           2.0f};
    Rng rng(seed);
    std::vector<float> x(static_cast<std::size_t>(n));
    for (float &v : x)
        v = kinds[rng.below(6)];
    return x;
}

std::vector<std::uint8_t>
liveCountMask(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> m(static_cast<std::size_t>(n));
    for (std::uint8_t &b : m)
        b = static_cast<std::uint8_t>(rng.below(2));
    return m;
}

const std::int64_t kLiveCountSizes[] = {0, 1, 3, 5, 1031, 100003};

TEST(DeterminismLiveCount, MatchesScalarReferenceAtEveryPoolSize)
{
    for (int threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        for (std::int64_t n : kLiveCountSizes) {
            const auto x = liveCountValues(n, 900 + n);
            const auto m = liveCountMask(n, 901 + n);
            const std::int64_t masked = scalarLiveCount(x.data(), m.data(), n);
            const std::int64_t unmasked =
                scalarLiveCount(x.data(), nullptr, n);
            for (int rep = 0; rep < 3; ++rep) {
                EXPECT_EQ(liveCount(x.data(), m.data(), n, pool), masked)
                    << "n " << n << ", " << threads << " threads";
                EXPECT_EQ(liveCount(x.data(), nullptr, n, pool), unmasked)
                    << "n " << n << ", " << threads << " threads";
            }
        }
    }
}

TEST(DeterminismLiveCount, AllMaskedAllLiveAndUnmasked)
{
    for (int threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        for (std::int64_t n : kLiveCountSizes) {
            const std::vector<float> dense(static_cast<std::size_t>(n),
                                           0.25f);
            const std::vector<std::uint8_t> none(
                static_cast<std::size_t>(n), 0);
            const std::vector<std::uint8_t> all(
                static_cast<std::size_t>(n), 1);
            EXPECT_EQ(liveCount(dense.data(), none.data(), n, pool), 0)
                << "n " << n << ", " << threads << " threads";
            EXPECT_EQ(liveCount(dense.data(), all.data(), n, pool), n)
                << "n " << n << ", " << threads << " threads";
            EXPECT_EQ(liveCount(dense.data(), nullptr, n, pool), n)
                << "n " << n << ", " << threads << " threads";
        }
    }
}

TEST(DeterminismLiveCount, SignedZeroIsDeadAndNanIsLive)
{
    const float x[] = {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                       -std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       std::numeric_limits<float>::denorm_min()};
    const std::uint8_t mask[] = {1, 1, 1, 0, 1, 1};
    for (int threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        EXPECT_EQ(liveCount(x, nullptr, 6, pool), 4) << threads;
        EXPECT_EQ(liveCount(x, mask, 6, pool), 3) << threads;
        EXPECT_EQ(liveCount(x, nullptr, 2, pool), 0) << threads;
    }
}

} // namespace
} // namespace spg
