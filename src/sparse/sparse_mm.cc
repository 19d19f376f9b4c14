#include "sparse/sparse_mm.hh"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace spg {

void
axpy(std::int64_t n, float alpha, const float *x, float *y)
{
    std::int64_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
    __m256 va = _mm256_set1_ps(alpha);
    for (; i + 8 <= n; i += 8) {
        __m256 vy = _mm256_loadu_ps(y + i);
        __m256 vx = _mm256_loadu_ps(x + i);
        _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, vx, vy));
    }
#endif
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
csrTimesDense(const CsrMatrix &a, const float *b, std::int64_t n, float *c)
{
    const auto &vals = a.vals();
    const auto &cidx = a.colIdx();
    const auto &rptr = a.rowPtr();
    for (std::int64_t i = 0; i < a.rows(); ++i) {
        float *crow = c + i * n;
        for (std::int64_t p = rptr[i]; p < rptr[i + 1]; ++p)
            axpy(n, vals[p], b + static_cast<std::int64_t>(cidx[p]) * n,
                 crow);
    }
}

void
ctcsrTimesDense(const CtCsrMatrix &a, const float *b, std::int64_t n,
                float *c)
{
    for (std::int64_t t = 0; t < a.tileCount(); ++t) {
        const CsrMatrix &tile = a.tile(t);
        const float *b_band = b + a.tileColOffset(t) * n;
        csrTimesDense(tile, b_band, n, c);
    }
}

} // namespace spg
