/**
 * @file
 * Tests for CSR / CT-CSR storage and sparse x dense products.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hh"
#include "sparse/sparse_mm.hh"
#include "tensor/layout.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

Tensor
randomSparse(std::int64_t rows, std::int64_t cols, double sparsity,
             std::uint64_t seed)
{
    Tensor t(Shape{rows, cols});
    Rng rng(seed);
    t.fillUniform(rng);
    t.sparsify(rng, sparsity);
    return t;
}

TEST(Csr, RoundTripEmpty)
{
    Tensor zero(Shape{4, 6});
    auto csr = CsrMatrix::fromDense(zero.data(), 4, 6);
    EXPECT_EQ(csr.nnz(), 0);
    EXPECT_DOUBLE_EQ(csr.sparsity(), 1.0);
    Tensor back(Shape{4, 6});
    back.fill(9.0f);
    csr.toDense(back.data());
    EXPECT_EQ(back.maxAbs(), 0.0f);
}

TEST(Csr, RoundTripDense)
{
    Tensor t = randomSparse(7, 11, 0.0, 1);
    auto csr = CsrMatrix::fromDense(t.data(), 7, 11);
    EXPECT_EQ(csr.nnz(), 7 * 11);
    Tensor back(Shape{7, 11});
    csr.toDense(back.data());
    EXPECT_EQ(maxAbsDiff(t, back), 0.0f);
}

class CsrSparsityLevels : public ::testing::TestWithParam<double>
{
};

TEST_P(CsrSparsityLevels, RoundTripPreservesValues)
{
    double s = GetParam();
    Tensor t = randomSparse(23, 37, s, 2);
    auto csr = CsrMatrix::fromDense(t.data(), 23, 37);
    Tensor back(Shape{23, 37});
    csr.toDense(back.data());
    EXPECT_EQ(maxAbsDiff(t, back), 0.0f) << "sparsity " << s;
    EXPECT_EQ(csr.nnz(), t.size() - t.zeroCount());
}

TEST_P(CsrSparsityLevels, CtCsrRoundTrip)
{
    double s = GetParam();
    Tensor t = randomSparse(19, 41, s, 3);
    for (std::int64_t tile : {1, 7, 16, 41, 100}) {
        auto ct = CtCsrMatrix::fromDense(t.data(), 19, 41, tile);
        EXPECT_EQ(ct.tileCount(), (41 + tile - 1) / tile);
        EXPECT_EQ(ct.nnz(), t.size() - t.zeroCount());
        Tensor back(Shape{19, 41});
        ct.toDense(back.data());
        EXPECT_EQ(maxAbsDiff(t, back), 0.0f)
            << "sparsity " << s << " tile " << tile;
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, CsrSparsityLevels,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.9,
                                           0.99, 1.0),
                         [](const auto &info) {
                             return "s" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

TEST(SparseMm, MatchesDenseProduct)
{
    std::int64_t m = 17, k = 29, n = 43;
    Tensor a = randomSparse(m, k, 0.8, 4);
    Tensor b = randomSparse(k, n, 0.0, 5);

    // Dense oracle.
    Tensor c_ref(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            float sum = 0;
            for (std::int64_t p = 0; p < k; ++p)
                sum += a.at(i, p) * b.at(p, j);
            c_ref.at(i, j) = sum;
        }

    auto csr = CsrMatrix::fromDense(a.data(), m, k);
    Tensor c1(Shape{m, n});
    csrTimesDense(csr, b.data(), n, c1.data());
    EXPECT_TRUE(allClose(c1, c_ref, 1e-4f, 1e-5f));

    for (std::int64_t tile : {1, 8, 29}) {
        auto ct = CtCsrMatrix::fromDense(a.data(), m, k, tile);
        Tensor c2(Shape{m, n});
        ctcsrTimesDense(ct, b.data(), n, c2.data());
        EXPECT_TRUE(allClose(c2, c_ref, 1e-4f, 1e-5f)) << "tile " << tile;
    }
}

TEST(SparseMm, AccumulatesIntoC)
{
    std::int64_t m = 3, k = 4, n = 5;
    Tensor a = randomSparse(m, k, 0.5, 6);
    Tensor b = randomSparse(k, n, 0.0, 7);
    Tensor c(Shape{m, n});
    c.fill(2.0f);
    auto csr = CsrMatrix::fromDense(a.data(), m, k);
    csrTimesDense(csr, b.data(), n, c.data());
    csrTimesDense(csr, b.data(), n, c.data());
    // c = 2 + 2 * (a*b): check one element by hand.
    float ab00 = 0;
    for (std::int64_t p = 0; p < k; ++p)
        ab00 += a.at(0, p) * b.at(p, 0);
    EXPECT_NEAR(c.at(0, 0), 2.0f + 2.0f * ab00, 1e-4f);
}

TEST(SparseMm, Axpy)
{
    std::vector<float> x(37), y(37), expect(37);
    Rng rng(8);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform();
        y[i] = rng.uniform();
        expect[i] = y[i] + 2.5f * x[i];
    }
    axpy(static_cast<std::int64_t>(x.size()), 2.5f, x.data(), y.data());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y[i], expect[i], 1e-5f) << i;
}

TEST(SparseMm, AxpyZeroLength)
{
    float y = 3.0f;
    axpy(0, 10.0f, nullptr, &y);
    EXPECT_FLOAT_EQ(y, 3.0f);
}

TEST(SparseMm, GoodputFlopsModel)
{
    EXPECT_EQ(sparseMmFlops(10, 8), 160);
    EXPECT_EQ(sparseMmFlops(0, 100), 0);
}

/** Encode a [C][H][W] tensor both ways — fused fromChw, and the
 *  transpose-then-compress path it replaces, on (mask ? chw : 0) when a
 *  mask is given — and require the stored arrays to be BYTE-IDENTICAL
 *  per tile (bytes, so NaN values compare too). */
void
expectFromChwMatchesStaged(const Tensor &chw, std::int64_t c,
                           std::int64_t h, std::int64_t w,
                           std::int64_t tile,
                           const std::uint8_t *mask = nullptr)
{
    auto fused = CtCsrMatrix::fromChw(chw.data(), c, h, w, tile, mask);

    Tensor masked = chw.clone();
    if (mask)
        for (std::int64_t i = 0; i < masked.size(); ++i)
            if (!mask[i])
                masked[i] = 0.0f;
    Tensor hwc(Shape{h * w, c});
    chwToHwc(masked.data(), c, h, w, hwc.data());
    auto staged = CtCsrMatrix::fromDense(hwc.data(), h * w, c, tile);

    std::string where = "tile " + std::to_string(tile) + " rows " +
                        std::to_string(h * w) +
                        (mask ? " masked" : " unmasked");
    ASSERT_EQ(fused.rows(), staged.rows()) << where;
    ASSERT_EQ(fused.cols(), staged.cols()) << where;
    ASSERT_EQ(fused.tileCount(), staged.tileCount()) << where;
    EXPECT_EQ(fused.nnz(), staged.nnz()) << where;
    for (std::int64_t t = 0; t < fused.tileCount(); ++t) {
        const CsrMatrix &ft = fused.tile(t);
        const CsrMatrix &st = staged.tile(t);
        EXPECT_EQ(ft.rowPtr(), st.rowPtr()) << where << " band " << t;
        EXPECT_EQ(ft.colIdx(), st.colIdx()) << where << " band " << t;
        ASSERT_EQ(ft.vals().size(), st.vals().size()) << where;
        EXPECT_EQ(std::memcmp(ft.vals().data(), st.vals().data(),
                              sizeof(float) * ft.vals().size()),
                  0)
            << where << " band " << t;
    }
}

TEST(CtCsr, FromChwMatchesStagedEncode)
{
    // Planes below, at and past one 16-row SIMD step, with and
    // without a mask; -0.0f must count as dead and NaN as live.
    const std::int64_t c = 20;
    const std::pair<std::int64_t, std::int64_t> planes[] = {
        {1, 1}, {3, 5}, {4, 4}, {1, 17}, {5, 5}, {24, 24}, {7, 9}};
    Rng rng(11);
    for (auto [h, w] : planes) {
        Tensor chw(Shape{c, h, w});
        chw.fillUniform(rng);
        chw.sparsify(rng, 0.8);
        for (std::int64_t i = 0; i < chw.size(); i += 7)
            chw[i] = -0.0f;
        for (std::int64_t i = 3; i < chw.size(); i += 11)
            chw[i] = std::numeric_limits<float>::quiet_NaN();
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(chw.size()));
        for (auto &m : mask)
            m = rng.uniform() < 0.5f ? 0 : 1 + (rng.uniform() < 0.5f);
        // Tile dividing C, not dividing C, wider than C, and degenerate 1.
        for (std::int64_t tile : {1, 4, 7, 20, 64}) {
            expectFromChwMatchesStaged(chw, c, h, w, tile);
            expectFromChwMatchesStaged(chw, c, h, w, tile, mask.data());
        }
    }
}

TEST(CtCsr, FromChwAllZero)
{
    std::int64_t c = 6, h = 4, w = 5;
    Tensor chw(Shape{c, h, w});
    auto ct = CtCsrMatrix::fromChw(chw.data(), c, h, w, 4);
    EXPECT_EQ(ct.nnz(), 0);
    expectFromChwMatchesStaged(chw, c, h, w, 4);
}

TEST(CtCsr, FromChwSingleNonZero)
{
    std::int64_t c = 6, h = 4, w = 5;
    Tensor chw(Shape{c, h, w});
    chw.at(4, 2, 3) = -2.5f;  // feature 4, spatial position (2,3)
    for (std::int64_t tile : {1, 4, 6, 100}) {
        auto ct = CtCsrMatrix::fromChw(chw.data(), c, h, w, tile);
        EXPECT_EQ(ct.nnz(), 1) << "tile " << tile;
        expectFromChwMatchesStaged(chw, c, h, w, tile);
    }
}

TEST(CtCsr, EncodeFromChwReusesStorage)
{
    // Re-encoding into an existing matrix (the plan cache's recycling
    // path) must produce the same result as a fresh build, including
    // after a geometry change and when the nnz shrinks.
    Rng rng(12);
    Tensor big(Shape{16, 6, 8});
    big.fillUniform(rng);
    big.sparsify(rng, 0.5);
    CtCsrMatrix m = CtCsrMatrix::fromChw(big.data(), 16, 6, 8, 5);

    auto expectFresh = [&](const Tensor &t, std::int64_t c,
                           std::int64_t h, std::int64_t w,
                           std::int64_t tile) {
        m.encodeFromChw(t.data(), c, h, w, tile);
        auto fresh = CtCsrMatrix::fromChw(t.data(), c, h, w, tile);
        ASSERT_EQ(m.tileCount(), fresh.tileCount());
        EXPECT_EQ(m.nnz(), fresh.nnz());
        for (std::int64_t i = 0; i < m.tileCount(); ++i) {
            EXPECT_EQ(m.tile(i).rowPtr(), fresh.tile(i).rowPtr());
            EXPECT_EQ(m.tile(i).colIdx(), fresh.tile(i).colIdx());
            EXPECT_EQ(m.tile(i).vals(), fresh.tile(i).vals());
        }
    };

    Tensor small(Shape{5, 3, 4});
    small.fillUniform(rng);
    small.sparsify(rng, 0.9);
    expectFresh(small, 5, 3, 4, 2);

    // Same geometry, denser then much sparser: the arrays shrink.
    Tensor dense(Shape{16, 6, 8});
    dense.fillUniform(rng);
    dense.sparsify(rng, 0.1);
    expectFresh(dense, 16, 6, 8, 5);
    std::int64_t dense_nnz = m.nnz();
    Tensor sparse(Shape{16, 6, 8});
    sparse.fillUniform(rng);
    sparse.sparsify(rng, 0.95);
    expectFresh(sparse, 16, 6, 8, 5);
    EXPECT_LT(m.nnz(), dense_nnz);
}

TEST(Csr, RowPtrInvariants)
{
    Tensor t = randomSparse(13, 9, 0.6, 9);
    auto csr = CsrMatrix::fromDense(t.data(), 13, 9);
    const auto &rptr = csr.rowPtr();
    ASSERT_EQ(rptr.size(), 14u);
    EXPECT_EQ(rptr.front(), 0);
    EXPECT_EQ(rptr.back(), csr.nnz());
    for (std::size_t i = 1; i < rptr.size(); ++i)
        EXPECT_LE(rptr[i - 1], rptr[i]);
    // Column indices strictly increasing within a row.
    for (std::int64_t r = 0; r < 13; ++r)
        for (std::int64_t p = rptr[r] + 1; p < rptr[r + 1]; ++p)
            EXPECT_LT(csr.colIdx()[p - 1], csr.colIdx()[p]);
}

} // namespace
} // namespace spg
