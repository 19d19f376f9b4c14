#include "nn/simple_layers.hh"

#include <algorithm>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "util/logging.hh"

namespace spg {

void
ReluLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t n = in.size();
    SPG_ASSERT(out.size() == n);
    const float *src = in.data();
    float *dst = out.data();
    pool.parallelFor(n, [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i)
            dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    });
}

void
ReluLayer::backward(const Tensor &, const Tensor &out, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    // Gate on the saved output: out > 0 iff in > 0 (ReLU preserves the
    // strict-positive predicate, including -0.0 and NaN), so this is
    // bit-for-bit the input-gated form while letting the arena planner
    // drop the input activation after FP.
    std::int64_t n = out.size();
    SPG_ASSERT(eo.size() == n && ei.size() == n);
    const float *y = out.data();
    const float *go = eo.data();
    float *gi = ei.data();
    pool.parallelFor(n, [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i)
            gi[i] = y[i] > 0.0f ? go[i] : 0.0f;
    });
}

PoolLayer::PoolLayer(Geometry geometry, std::int64_t kernel,
                     std::int64_t stride, Mode mode)
    : geom(geometry), kernel(kernel), stride(stride), mode(mode)
{
    if (kernel < 1 || stride < 1 || kernel > geom.h || kernel > geom.w)
        fatal("pool layer: bad kernel %lld / stride %lld for input %s",
              static_cast<long long>(kernel),
              static_cast<long long>(stride), geom.str().c_str());
}

Geometry
PoolLayer::outputGeometry() const
{
    return Geometry{geom.c, (geom.h - kernel) / stride + 1,
                    (geom.w - kernel) / stride + 1};
}

namespace {

/**
 * Max-pool one input plane (width w) into an oh x ow output plane,
 * branch-free. Each window starts at its (0, 0) element and is
 * replaced only on a strict `>` in (ky, kx) order: ties and +-0 keep
 * the first index, a NaN at (0, 0) sticks and a NaN anywhere else
 * never wins. @p am (plane-relative flat argmax) may be null.
 */
void
maxPoolPlaneScalar(const float *plane, std::int64_t w, std::int64_t oh,
                   std::int64_t ow, std::int64_t k, std::int64_t s,
                   float *dst, std::int32_t *am)
{
    for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t start = y * s * w + x * s;
            float best = plane[start];
            std::int64_t best_idx = start;
            for (std::int64_t ky = 0; ky < k; ++ky) {
                for (std::int64_t kx = 0; kx < k; ++kx) {
                    const std::int64_t idx = start + ky * w + kx;
                    const float v = plane[idx];
                    const bool gt = v > best;
                    best = gt ? v : best;
                    best_idx = gt ? idx : best_idx;
                }
            }
            dst[y * ow + x] = best;
            if (am != nullptr)
                am[y * ow + x] = static_cast<std::int32_t>(best_idx);
        }
    }
}

#if defined(__AVX512F__)

/**
 * @return the output columns one AVX-512 pass holds: lanes span
 * (chunk - 1) * s + k input floats, which two vectors must cover.
 * 0 when even one window is wider than 32 floats.
 */
std::int64_t
maxPoolChunk(std::int64_t k, std::int64_t s)
{
    return k > 32 ? 0 : std::min<std::int64_t>(16, (32 - k) / s + 1);
}

/**
 * maxPoolPlaneScalar's loop nest with up to @p chunk output columns of
 * one output row in one vector. Per (ky, kx) in the scalar order, lane
 * j takes input column x0 + j * s + kx from the row's two masked loads
 * through one permute; an ordered strict greater-than (false when
 * either side is NaN) then blends the value and the window offset
 * ky * w + kx, which is the scalar rule lane by lane.
 */
void
maxPoolPlaneAvx512(const float *plane, std::int64_t w, std::int64_t oh,
                   std::int64_t ow, std::int64_t k, std::int64_t s,
                   std::int64_t chunk, float *dst, std::int32_t *am)
{
    const __m512i lane_s = _mm512_mullo_epi32(
        _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                         1, 0),
        _mm512_set1_epi32(static_cast<int>(s)));
    for (std::int64_t x0 = 0; x0 < ow; x0 += chunk) {
        const std::int64_t cols = std::min(chunk, ow - x0);
        const std::int64_t span = (cols - 1) * s + k;
        const __mmask16 lo = static_cast<__mmask16>(
            span >= 16 ? 0xFFFFu : (1u << span) - 1u);
        const __mmask16 hi = static_cast<__mmask16>(
            span > 16 ? (1u << (span - 16)) - 1u : 0u);
        const __mmask16 out = static_cast<__mmask16>((1u << cols) - 1u);
        for (std::int64_t y = 0; y < oh; ++y) {
            // Flat index of lane 0's window start.
            const std::int64_t start = y * s * w + x0 * s;
            __m512 best = _mm512_setzero_ps();
            __m512i best_off = _mm512_setzero_si512();
            for (std::int64_t ky = 0; ky < k; ++ky) {
                const float *row = plane + start + ky * w;
                const __m512 a = _mm512_maskz_loadu_ps(lo, row);
                const __m512 b = _mm512_maskz_loadu_ps(hi, row + 16);
                for (std::int64_t kx = 0; kx < k; ++kx) {
                    const __m512 v = _mm512_permutex2var_ps(
                        a,
                        _mm512_add_epi32(
                            lane_s,
                            _mm512_set1_epi32(static_cast<int>(kx))),
                        b);
                    if (ky == 0 && kx == 0) {
                        best = v;
                        continue;
                    }
                    const __mmask16 gt =
                        _mm512_cmp_ps_mask(v, best, _CMP_GT_OQ);
                    best = _mm512_mask_blend_ps(gt, best, v);
                    best_off = _mm512_mask_blend_epi32(
                        gt, best_off,
                        _mm512_set1_epi32(static_cast<int>(ky * w + kx)));
                }
            }
            _mm512_mask_storeu_ps(dst + y * ow + x0, out, best);
            if (am != nullptr) {
                const __m512i idx = _mm512_add_epi32(
                    _mm512_add_epi32(best_off, lane_s),
                    _mm512_set1_epi32(static_cast<int>(start)));
                _mm512_mask_storeu_epi32(am + y * ow + x0, out, idx);
            }
        }
    }
}

#endif

/** Average-pool one input plane (width w) into an oh x ow plane. */
void
avgPoolPlane(const float *plane, std::int64_t w, std::int64_t oh,
             std::int64_t ow, std::int64_t k, std::int64_t s, float *dst)
{
    for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t start = y * s * w + x * s;
            float sum = 0;
            for (std::int64_t ky = 0; ky < k; ++ky)
                for (std::int64_t kx = 0; kx < k; ++kx)
                    sum += plane[start + ky * w + kx];
            dst[y * ow + x] = sum / static_cast<float>(k * k);
        }
    }
}

} // namespace

void
PoolLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    const std::int64_t planes = in.shape()[0] * geom.c;
    const Geometry og = outputGeometry();
    const std::int64_t in_plane = geom.h * geom.w;
    const std::int64_t out_plane = og.h * og.w;
    const bool record_argmax = mode == Mode::Max && !inference_only;
    // Every element is written below, so a resize need not fill.
    if (record_argmax)
        argmax.resize(static_cast<std::size_t>(planes * out_plane));
#if defined(__AVX512F__)
    const std::int64_t chunk = maxPoolChunk(kernel, stride);
#endif

    // A static split over the batch x channel planes; each plane is
    // pooled independently, so the split does not change a byte.
    pool.parallelFor(planes, [&](std::int64_t p0, std::int64_t p1, int) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const float *plane = in.data() + p * in_plane;
            float *dst = out.data() + p * out_plane;
            if (mode == Mode::Avg) {
                avgPoolPlane(plane, geom.w, og.h, og.w, kernel, stride,
                             dst);
                continue;
            }
            std::int32_t *am =
                record_argmax ? argmax.data() + p * out_plane : nullptr;
#if defined(__AVX512F__)
            if (chunk > 0) {
                maxPoolPlaneAvx512(plane, geom.w, og.h, og.w, kernel,
                                   stride, chunk, dst, am);
                continue;
            }
#endif
            maxPoolPlaneScalar(plane, geom.w, og.h, og.w, kernel, stride,
                               dst, am);
        }
    });
}

void
PoolLayer::backward(const Tensor &, const Tensor &, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    std::int64_t batch = eo.shape()[0];
    Geometry og = outputGeometry();
    std::int64_t in_stride = geom.elems();
    std::int64_t out_stride = og.elems();

    // Scatter targets stay inside the (b, c) input plane (argmax
    // indices are plane-relative), so the 2D tasks write disjointly —
    // and each task zeroes its own plane before scattering into it,
    // so ei needs no serial zero-fill and may arrive holding garbage.
    pool.parallelFor2D(
        batch, geom.c, [&](std::int64_t b, std::int64_t c, int) {
            const float *go = eo.data() + b * out_stride;
            float *plane = ei.data() + b * in_stride + c * geom.h * geom.w;
            std::fill_n(plane, geom.h * geom.w, 0.0f);
            for (std::int64_t y = 0; y < og.h; ++y) {
                for (std::int64_t x = 0; x < og.w; ++x) {
                    float e = go[(c * og.h + y) * og.w + x];
                    if (mode == Mode::Max) {
                        std::int64_t idx =
                            argmax[b * out_stride +
                                   (c * og.h + y) * og.w + x];
                        plane[idx] += e;
                    } else {
                        float share =
                            e / static_cast<float>(kernel * kernel);
                        std::int64_t y0 = y * stride, x0 = x * stride;
                        for (std::int64_t ky = 0; ky < kernel; ++ky)
                            for (std::int64_t kx = 0; kx < kernel; ++kx)
                                plane[(y0 + ky) * geom.w + x0 + kx] +=
                                    share;
                    }
                }
            }
        });
}

} // namespace spg
