#include "conv/engine_sparse_direct.hh"

#include "conv/weight_plans.hh"
#include "obs/trace.hh"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define SPG_SPARSE_DIRECT_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define SPG_SPARSE_DIRECT_AVX2 1
#include <immintrin.h>
#endif

namespace spg {

namespace {

/**
 * Scalar pixels [x0, x1) of one output row: the reference per-pixel
 * double chain over the feature's surviving taps, any stride. The
 * float*float products are exact in double, so whether the compiler
 * contracts the multiply-add into an FMA or not the rounded result
 * per step is identical — bit-for-bit stable across codegen.
 */
inline void
sparseRowScalar(const float *ibase, std::int64_t sx, const float *vals,
                const std::int64_t *offs, std::int64_t n, float *orow,
                std::int64_t x0, std::int64_t x1)
{
    for (std::int64_t x = x0; x < x1; ++x) {
        const float *p = ibase + x * sx;
        double acc = 0.0;
        for (std::int64_t e = 0; e < n; ++e)
            acc += static_cast<double>(p[offs[e]]) *
                   static_cast<double>(vals[e]);
        orow[x] = static_cast<float>(acc);
    }
}

#if SPG_SPARSE_DIRECT_AVX512

/** T zmm accumulators covering T*8 unit-stride pixels from px. */
template <int T>
inline void
sparseFpTileZ(const float *px, const float *vals,
              const std::int64_t *offs, std::int64_t n, float *orow)
{
    __m512d acc[T];
    for (int t = 0; t < T; ++t)
        acc[t] = _mm512_setzero_pd();
    for (std::int64_t e = 0; e < n; ++e) {
        __m512d w = _mm512_set1_pd(static_cast<double>(vals[e]));
        const float *p = px + offs[e];
        for (int t = 0; t < T; ++t) {
            __m512d v = _mm512_cvtps_pd(_mm256_loadu_ps(p + t * 8));
            acc[t] = _mm512_fmadd_pd(v, w, acc[t]);
        }
    }
    for (int t = 0; t < T; ++t)
        _mm256_storeu_ps(orow + t * 8, _mm512_cvtpd_ps(acc[t]));
}

#if defined(__AVX512VL__)

/**
 * Masked tile for the last count < 8 pixels of a row. Masked-off
 * lanes load as +0.0f, accumulate 0.0 * w products, and are discarded
 * by the masked store, so the surviving lanes run the exact per-pixel
 * double chain of the reference — the tail stays bit-for-bit while
 * running at vector throughput instead of the scalar latency chain.
 */
inline void
sparseFpTileZTail(const float *px, const float *vals,
                  const std::int64_t *offs, std::int64_t n, float *orow,
                  std::int64_t count)
{
    __mmask8 m = static_cast<__mmask8>((1u << count) - 1u);
    __m512d acc = _mm512_setzero_pd();
    for (std::int64_t e = 0; e < n; ++e) {
        __m512d w = _mm512_set1_pd(static_cast<double>(vals[e]));
        __m512d v =
            _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, px + offs[e]));
        acc = _mm512_fmadd_pd(v, w, acc);
    }
    _mm256_mask_storeu_ps(orow, m, _mm512_cvtpd_ps(acc));
}

#endif // __AVX512VL__

#elif SPG_SPARSE_DIRECT_AVX2

/** T ymm accumulators covering T*4 unit-stride pixels from px. */
template <int T>
inline void
sparseFpTileY(const float *px, const float *vals,
              const std::int64_t *offs, std::int64_t n, float *orow)
{
    __m256d acc[T];
    for (int t = 0; t < T; ++t)
        acc[t] = _mm256_setzero_pd();
    for (std::int64_t e = 0; e < n; ++e) {
        __m256d w = _mm256_set1_pd(static_cast<double>(vals[e]));
        const float *p = px + offs[e];
        for (int t = 0; t < T; ++t) {
            __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(p + t * 4));
            acc[t] = _mm256_fmadd_pd(v, w, acc[t]);
        }
    }
    for (int t = 0; t < T; ++t)
        _mm_storeu_ps(orow + t * 4, _mm256_cvtpd_ps(acc[t]));
}

#endif

/** One unit-stride output row: widest register tiles first, scalar
 *  tail. An empty CSR row (fully pruned feature) writes zeros. */
inline void
sparseRowUnit(const float *ibase, const float *vals,
              const std::int64_t *offs, std::int64_t n, float *orow,
              std::int64_t ox)
{
    std::int64_t x = 0;
#if SPG_SPARSE_DIRECT_AVX512
    for (; x + 32 <= ox; x += 32)
        sparseFpTileZ<4>(ibase + x, vals, offs, n, orow + x);
    if (x + 16 <= ox) {
        sparseFpTileZ<2>(ibase + x, vals, offs, n, orow + x);
        x += 16;
    }
    if (x + 8 <= ox) {
        sparseFpTileZ<1>(ibase + x, vals, offs, n, orow + x);
        x += 8;
    }
#if defined(__AVX512VL__)
    if (x < ox) {
        sparseFpTileZTail(ibase + x, vals, offs, n, orow + x, ox - x);
        x = ox;
    }
#endif
#elif SPG_SPARSE_DIRECT_AVX2
    for (; x + 16 <= ox; x += 16)
        sparseFpTileY<4>(ibase + x, vals, offs, n, orow + x);
    if (x + 8 <= ox) {
        sparseFpTileY<2>(ibase + x, vals, offs, n, orow + x);
        x += 8;
    }
    if (x + 4 <= ox) {
        sparseFpTileY<1>(ibase + x, vals, offs, n, orow + x);
        x += 4;
    }
#endif
    sparseRowScalar(ibase, 1, vals, offs, n, orow, x, ox);
}

} // namespace

void
SparseDirectFpEngine::forward(const ConvSpec &spec, const Tensor &in,
                              const Tensor &weights, Tensor &out,
                              ThreadPool &pool,
                              const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "sparse-weights-direct FP");
    checkForwardShapes(spec, in, weights, out);
    std::int64_t batch = in.shape()[0];
    std::int64_t oy = spec.outY(), ox = spec.outX();

    auto plan = WeightPlanCache::global().get(weights.data(), spec);
    const float *vals = plan->csr.vals().data();
    const std::int64_t *rptr = plan->csr.rowPtr().data();
    const std::int64_t *offs = plan->in_off.data();

    // One work item per (image, output feature) plane; planes are
    // written exactly once, so items are fully independent.
    pool.parallelFor2D(
        batch, spec.nf,
        [&](std::int64_t b, std::int64_t f, int) {
            const float *image = in.data() + b * spec.inputElems();
            float *plane = out.data() + b * spec.outputElems() +
                           f * oy * ox;
            std::int64_t e0 = rptr[f];
            std::int64_t n = rptr[f + 1] - e0;
            const float *row_vals = vals + e0;
            const std::int64_t *row_offs = offs + e0;
            for (std::int64_t y = 0; y < oy; ++y) {
                const float *ibase = image + y * spec.sy * spec.nx;
                float *orow = plane + y * ox;
                if (spec.sx == 1)
                    sparseRowUnit(ibase, row_vals, row_offs, n, orow,
                                  ox);
                else
                    sparseRowScalar(ibase, spec.sx, row_vals, row_offs,
                                    n, orow, 0, ox);
                // Row finished (written exactly once): fuse here.
                epilogue.apply(orow,
                               b * spec.outputElems() + f * oy * ox +
                                   y * ox,
                               ox);
            }
        },
        /*grain=*/1);
}

} // namespace spg
