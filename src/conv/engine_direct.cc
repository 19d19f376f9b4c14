#include "conv/engine_direct.hh"

#include <algorithm>
#include <cstring>

#include "conv/conv_ref.hh"
#include "conv/direct_block.hh"
#include "conv/scratch.hh"
#include "tensor/blocked.hh"
#include "util/logging.hh"

namespace spg {

namespace {

constexpr std::int64_t kCB = kChannelBlock;

/** Satellite contract: blocked slabs handed to the register-tiled
 *  loops are 64-byte aligned. Checked under sanitized builds where the
 *  extra branch is free relative to the poisoning overhead. */
inline void
assertBlockedAlignment(const void *p, const char *what)
{
#ifdef SPG_SANITIZE_BUILD
    if ((reinterpret_cast<std::uintptr_t>(p) & 63u) != 0)
        panic("direct engine: %s is not 64-byte aligned (%p)", what, p);
#else
    (void)p;
    (void)what;
#endif
}

/** Validate one plain NCHW activation operand. */
void
checkActivation(const ConvSpec &spec, const Tensor &t,
                std::int64_t batch, std::int64_t channels,
                std::int64_t ny, std::int64_t nx, const char *what)
{
    if (t.shape() != Shape{batch, channels, ny, nx})
        panic("direct %s: shape %s does not match conv %s", what,
              t.shape().str().c_str(), spec.str().c_str());
}

void
checkWeights(const ConvSpec &spec, const Tensor &w)
{
    if (w.shape() != Shape{spec.nf, spec.nc, spec.fy, spec.fx})
        panic("direct weights: shape %s does not match conv %s",
              w.shape().str().c_str(), spec.str().c_str());
}

/** Rows per task so each (image, block) group splits into enough
 *  chunks to keep the pool busy. Chunking never changes values — each
 *  row is computed independently — so it is free to depend on the pool
 *  size. */
std::int64_t
rowChunk(std::int64_t rows, std::int64_t groups, int threads)
{
    const std::int64_t want = std::max<std::int64_t>(
        1,
        (static_cast<std::int64_t>(threads) * 8 + groups - 1) / groups);
    return std::max<std::int64_t>(1, (rows + want - 1) / want);
}

#if defined(__AVX2__) && defined(__FMA__) && defined(SPG_DIRECT_AVX512)

/** packWeightBlockKcrsck with an exact float->double widening fused
 *  into the gather, feeding the zmm FP tiles. */
void
packWeightBlockKcrsckD(const float *w, double *dst, std::int64_t nf,
                       std::int64_t nc, std::int64_t fy, std::int64_t fx,
                       std::int64_t kb, std::int64_t cb)
{
    const std::int64_t taps = fy * fx;
    const std::int64_t cbn = blockCount(nc);
    const std::int64_t klive = std::min(kCB, nf - kb * kCB);
    const std::int64_t clive = std::min(kCB, nc - cb * kCB);
    double *dblk = dst + (kb * cbn + cb) * taps * kCB * kCB;
    std::memset(dblk, 0,
                static_cast<std::size_t>(taps * kCB * kCB) *
                    sizeof(double));
    for (std::int64_t ci = 0; ci < clive; ++ci) {
        // 8 taps x 8 ko at a time: after the transpose each vector
        // holds one tap's 8 output features, which is exactly the
        // contiguous [ci*8 .. ci*8+8) run of the destination tap row.
        std::int64_t t0 = 0;
        for (; t0 + 8 <= taps; t0 += 8) {
            __m256 r[8];
            for (std::int64_t ko = 0; ko < 8; ++ko)
                r[ko] =
                    ko < klive
                        ? _mm256_loadu_ps(
                              w +
                              ((kb * kCB + ko) * nc + cb * kCB + ci) *
                                  taps +
                              t0)
                        : _mm256_setzero_ps();
            transpose8x8Ps(r);
            for (std::int64_t j = 0; j < 8; ++j)
                _mm512_storeu_pd(dblk + (t0 + j) * kCB * kCB + ci * kCB,
                                 _mm512_cvtps_pd(r[j]));
        }
        for (std::int64_t ko = 0; ko < klive; ++ko) {
            const float *s =
                w + ((kb * kCB + ko) * nc + cb * kCB + ci) * taps;
            double *d = dblk + ci * kCB + ko;
            for (std::int64_t t = t0; t < taps; ++t)
                d[t * kCB * kCB] = static_cast<double>(s[t]);
        }
    }
}

/** packImageBlockNchwc widened to double (pad lanes zero). */
void
packImageBlockNchwcD(const float *src, double *dst, std::int64_t c,
                     std::int64_t ny, std::int64_t nx, std::int64_t cb)
{
    const std::int64_t plane = ny * nx;
    const std::int64_t live = std::min(kCB, c - cb * kCB);
    const float *group = src + cb * kCB * plane;
    double *d = dst + cb * plane * kCB;
    std::int64_t p = 0;
    for (; p + 8 <= plane; p += 8) {
        __m256 r[8];
        for (std::int64_t ci = 0; ci < 8; ++ci)
            r[ci] = ci < live ? _mm256_loadu_ps(group + ci * plane + p)
                              : _mm256_setzero_ps();
        transpose8x8Ps(r);
        for (std::int64_t j = 0; j < 8; ++j)
            _mm512_storeu_pd(d + (p + j) * 8, _mm512_cvtps_pd(r[j]));
    }
    for (; p < plane; ++p) {
        double *dp = d + p * kCB;
        std::int64_t ci = 0;
        for (; ci < live; ++ci)
            dp[ci] = static_cast<double>(group[ci * plane + p]);
        for (; ci < kCB; ++ci)
            dp[ci] = 0.0;
    }
}

/** BP-data gather weights for a channel-block PAIR: [nf][fy][fx][16]
 *  with lanes 0-7 = block cb0, 8-15 = block cb0+1 (zero when the pair
 *  hangs past nc). */
void
packWeightPairCfrsc(const float *w, float *dst, std::int64_t nf,
                    std::int64_t nc, std::int64_t fy, std::int64_t fx,
                    std::int64_t cb0)
{
    const std::int64_t taps = fy * fx;
    for (std::int64_t f = 0; f < nf; ++f) {
        float *d = dst + f * taps * 16;
        for (std::int64_t t = 0; t < taps; ++t) {
            for (std::int64_t half = 0; half < 2; ++half) {
                const std::int64_t cb = cb0 + half;
                const std::int64_t clive = std::min<std::int64_t>(
                    kCB, std::max<std::int64_t>(0, nc - cb * kCB));
                std::int64_t ci = 0;
                for (; ci < clive; ++ci)
                    d[half * kCB + ci] =
                        w[(f * nc + cb * kCB + ci) * taps + t];
                for (; ci < kCB; ++ci)
                    d[half * kCB + ci] = 0.0f;
            }
            d += 16;
        }
    }
}

#endif // __AVX2__ && __FMA__ && SPG_DIRECT_AVX512

} // namespace

void
DirectEngine::forward(const ConvSpec &spec, const Tensor &in,
                      const Tensor &weights, Tensor &out,
                      ThreadPool &pool, const Epilogue &epilogue) const
{
    const std::int64_t batch = in.shape()[0];
    checkActivation(spec, in, batch, spec.nc, spec.ny, spec.nx, "in");
    checkActivation(spec, out, batch, spec.nf, spec.outY(), spec.outX(),
                    "out");
    checkWeights(spec, weights);

#if defined(__AVX2__) && defined(__FMA__)
    const std::int64_t ny = spec.ny, nx = spec.nx;
    const std::int64_t oyN = spec.outY(), oxN = spec.outX();
    const std::int64_t fy = spec.fy, fx = spec.fx;
    const std::int64_t cbn = blockCount(spec.nc);
    const std::int64_t kbn = blockCount(spec.nf);
    ScratchArena &arena = ScratchArena::forThread();

    const std::int64_t in_img = cbn * ny * nx * kCB;
    const float *wsrc = weights.data();

#ifdef SPG_DIRECT_AVX512
    // Weights -> KCRSck widened to double (per call: weights change
    // every step). The slot is sized in floats, so request 2x.
    const std::size_t w_elems = static_cast<std::size_t>(
        kcrsckShape(spec.nf, spec.nc, fy, fx).elements());
    double *wblk = reinterpret_cast<double *>(
        arena.get(kSlotDirectWeights, 2 * w_elems));
    pool.parallelForDynamic(
        kbn * cbn,
        [&](std::int64_t i, int) {
            packWeightBlockKcrsckD(wsrc, wblk, spec.nf, spec.nc, fy, fx,
                                   i / cbn, i % cbn);
        },
        1);

    // Input -> blocked double.
    double *inb = reinterpret_cast<double *>(arena.get(
        kSlotDirectIn, static_cast<std::size_t>(2 * batch * in_img)));
    const float *src = in.data();
    pool.parallelForDynamic(
        batch * cbn,
        [&](std::int64_t i, int) {
            packImageBlockNchwcD(src + (i / cbn) * spec.inputElems(),
                                 inb + (i / cbn) * in_img, spec.nc, ny,
                                 nx, i % cbn);
        },
        1);
    assertBlockedAlignment(inb, "staged input");
#else
    // Weights -> KCRSck (per call: weights change every step).
    float *wblk = arena.get(
        kSlotDirectWeights,
        static_cast<std::size_t>(
            kcrsckShape(spec.nf, spec.nc, fy, fx).elements()));
    pool.parallelForDynamic(
        kbn * cbn,
        [&](std::int64_t i, int) {
            packWeightBlockKcrsck(wsrc, wblk, spec.nf, spec.nc, fy, fx,
                                  kCB, i / cbn, i % cbn);
        },
        1);

    // Input -> blocked.
    float *inb = arena.get(kSlotDirectIn,
                           static_cast<std::size_t>(batch * in_img));
    const float *src = in.data();
    pool.parallelForDynamic(
        batch * cbn,
        [&](std::int64_t i, int) {
            packImageBlockNchwc(src + (i / cbn) * spec.inputElems(),
                                inb + (i / cbn) * in_img, spec.nc, ny, nx,
                                kCB, i % cbn);
        },
        1);
    assertBlockedAlignment(inb, "staged input");
#endif

    // Output rows are produced blocked, then unpacked into `out` with
    // the epilogue applied per plane.
    const std::int64_t out_img = kbn * oyN * oxN * kCB;
    float *outb = arena.get(kSlotDirectOut,
                            static_cast<std::size_t>(batch * out_img));
    assertBlockedAlignment(outb, "blocked output");

    const std::int64_t chunk = rowChunk(oyN, batch * kbn, pool.threads());
    const std::int64_t chunks = (oyN + chunk - 1) / chunk;
    pool.parallelForDynamic(
        batch * kbn * chunks,
        [&](std::int64_t t, int) {
            const std::int64_t b = t / (kbn * chunks);
            const std::int64_t rem = t % (kbn * chunks);
            const std::int64_t kb = rem / chunks;
            const std::int64_t y0 = (rem % chunks) * chunk;
            const std::int64_t y1 = std::min(oyN, y0 + chunk);
            // double under AVX-512, float otherwise.
            const auto *img = inb + b * in_img;
            const auto *wb = wblk + kb * cbn * fy * fx * kCB * kCB;
            for (std::int64_t y = y0; y < y1; ++y) {
                float *row =
                    outb + ((b * kbn + kb) * oyN + y) * oxN * kCB;
                std::int64_t x = 0;
#ifdef SPG_DIRECT_AVX512
                if (spec.sx == 1) {
                    directFpRowZ1(img, wb, cbn, ny, nx, fy, fx,
                                  spec.sy, y, oxN, row);
                    x = oxN;
                } else {
                    for (; x + 12 <= oxN; x += 12)
                        directFpTileZ<12>(img, wb, cbn, ny, nx, fy, fx,
                                          spec.sy, spec.sx, y, x, row);
                    for (; x + 4 <= oxN; x += 4)
                        directFpTileZ<4>(img, wb, cbn, ny, nx, fy, fx,
                                         spec.sy, spec.sx, y, x, row);
                    for (; x < oxN; ++x)
                        directFpTileZ<1>(img, wb, cbn, ny, nx, fy, fx,
                                         spec.sy, spec.sx, y, x, row);
                }
#else
                for (; x + 4 <= oxN; x += 4)
                    directFpTile<4>(img, wb, cbn, ny, nx, fy, fx,
                                    spec.sy, spec.sx, y, x, row);
                for (; x + 2 <= oxN; x += 2)
                    directFpTile<2>(img, wb, cbn, ny, nx, fy, fx,
                                    spec.sy, spec.sx, y, x, row);
                for (; x < oxN; ++x)
                    directFpTile<1>(img, wb, cbn, ny, nx, fy, fx,
                                    spec.sy, spec.sx, y, x, row);
#endif
            }
        },
        1);

    float *dst = out.data();
    pool.parallelForDynamic(
        batch * kbn,
        [&](std::int64_t i, int) {
            const std::int64_t b = i / kbn, kb = i % kbn;
            const std::int64_t plane = oyN * oxN;
            unpackImageBlockNchwc(outb + b * out_img,
                                  dst + b * spec.outputElems(), spec.nf,
                                  oyN, oxN, kCB, kb);
            const std::int64_t klive = std::min(kCB, spec.nf - kb * kCB);
            for (std::int64_t ko = 0; ko < klive; ++ko) {
                const std::int64_t off =
                    (b * spec.nf + kb * kCB + ko) * plane;
                epilogue.apply(dst + off, off, plane);
            }
        },
        1);
#else
    // Portable fallback: reference loop nests parallelized over the
    // batch (bitwise identical to ReferenceEngine).
    const std::int64_t in_stride = spec.inputElems();
    const std::int64_t out_stride = spec.outputElems();
    const float *src = in.data();
    float *dst = out.data();
    const float *wsrc = weights.data();
    pool.parallelForDynamic(
        batch,
        [&](std::int64_t b, int) {
            convForwardRef(spec, src + b * in_stride, wsrc,
                           dst + b * out_stride);
            epilogue.apply(dst + b * out_stride, b * out_stride,
                           out_stride);
        },
        1);
#endif
}

void
DirectEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                           const Tensor &weights, Tensor &ei,
                           ThreadPool &pool, const BpMask &mask) const
{
    const std::int64_t batch = eo.shape()[0];
    checkBackwardShapes(spec, eo, weights, ei);

#if defined(__AVX2__) && defined(__FMA__)
    const std::int64_t ny = spec.ny, nx = spec.nx;
    const std::int64_t oyN = spec.outY(), oxN = spec.outX();
    const std::int64_t fy = spec.fy, fx = spec.fx;
    const std::int64_t nf = spec.nf;
    const std::int64_t taps = fy * fx;
    const std::int64_t cbn = blockCount(spec.nc);
    ScratchArena &arena = ScratchArena::forThread();

    const float *wsrc = weights.data();
#ifdef SPG_DIRECT_AVX512
    // zmm path (stride 1): gather weights for channel-block PAIRS,
    // [C/16][K][Fy][Fx][16]. Strided pixels keep the 8-wide layout.
    const bool paired = spec.sy == 1 && spec.sx == 1;
    const std::int64_t cpn = (cbn + 1) / 2;
    float *wblk;
    if (paired) {
        wblk = arena.get(kSlotDirectWeights, static_cast<std::size_t>(
                                                 cpn * nf * taps * 16));
        pool.parallelForDynamic(
            cpn,
            [&](std::int64_t p, int) {
                packWeightPairCfrsc(wsrc, wblk + p * nf * taps * 16, nf,
                                    spec.nc, fy, fx, p * 2);
            },
            1);
    } else {
        wblk = arena.get(
            kSlotDirectWeights,
            static_cast<std::size_t>(cbn * nf * taps * kCB));
        pool.parallelForDynamic(
            cbn,
            [&](std::int64_t cb, int) {
                packWeightBlockCfrsc(wsrc, wblk, nf, spec.nc, fy, fx,
                                     kCB, cb);
            },
            1);
    }
#else
    // Weights -> BP gather layout [C/8][K][Fy][Fx][8].
    float *wblk = arena.get(
        kSlotDirectWeights,
        static_cast<std::size_t>(cbn * nf * taps * kCB));
    pool.parallelForDynamic(
        cbn,
        [&](std::int64_t cb, int) {
            packWeightBlockCfrsc(wsrc, wblk, nf, spec.nc, fy, fx, kCB,
                                 cb);
        },
        1);
#endif

    // Fused ReLU mask: stage the masked errors once for the whole
    // batch (each plane is then re-read once per channel block).
    const float *eosrc = eo.data();
    if (mask.active()) {
        const std::int64_t plane = oyN * oxN;
        float *tmp = arena.get(
            kSlotDirectIn,
            static_cast<std::size_t>(batch * spec.outputElems()));
        const float *src = eo.data();
        pool.parallelForDynamic(
            batch * nf,
            [&](std::int64_t p, int) {
                mask.stage(src + p * plane, p * plane, plane,
                           tmp + p * plane);
            },
            4);
        eosrc = tmp;
    }

    // The pair path rounds the staging up to an even block count so a
    // half-dead tail pair has a (never unpacked) row to write.
#ifdef SPG_DIRECT_AVX512
    const std::int64_t ei_blocks = paired ? cpn * 2 : cbn;
#else
    const std::int64_t ei_blocks = cbn;
#endif
    const std::int64_t ei_img = ei_blocks * ny * nx * kCB;
    float *eib = arena.get(kSlotDirectOut,
                           static_cast<std::size_t>(batch * ei_img));
    assertBlockedAlignment(eib, "blocked ei staging");

#ifdef SPG_DIRECT_AVX512
    if (paired) {
        const std::int64_t chunk =
            rowChunk(ny, batch * cpn, pool.threads());
        const std::int64_t chunks = (ny + chunk - 1) / chunk;
        pool.parallelForDynamic(
            batch * cpn * chunks,
            [&](std::int64_t t, int) {
                const std::int64_t b = t / (cpn * chunks);
                const std::int64_t rem = t % (cpn * chunks);
                const std::int64_t cp = rem / chunks;
                const std::int64_t y0 = (rem % chunks) * chunk;
                const std::int64_t y1 = std::min(ny, y0 + chunk);
                const float *eo_img = eosrc + b * spec.outputElems();
                const float *wcp = wblk + cp * nf * taps * 16;
                for (std::int64_t iy = y0; iy < y1; ++iy) {
                    float *r0 =
                        eib +
                        ((b * ei_blocks + cp * 2) * ny + iy) * nx * kCB;
                    float *r1 = r0 + ny * nx * kCB;
                    const std::int64_t ky_lo =
                        std::max<std::int64_t>(0, iy - oyN + 1);
                    const std::int64_t ky_hi =
                        std::min<std::int64_t>(fy - 1, iy);
                    const std::int64_t mid0 = fx - 1;
                    const std::int64_t mid1 = oxN;  // exclusive
                    if (mid0 >= mid1) {
                        for (std::int64_t c0 = 0; c0 < nx; c0 += 16)
                            directBpdEdgeZ(
                                eo_img, wcp, nf, oyN, oxN, fy, fx, iy,
                                c0, std::min<std::int64_t>(16, nx - c0),
                                ky_lo, ky_hi, r0, r1);
                        continue;
                    }
                    for (std::int64_t c0 = 0; c0 < mid0; c0 += 16)
                        directBpdEdgeZ(
                            eo_img, wcp, nf, oyN, oxN, fy, fx, iy, c0,
                            std::min<std::int64_t>(16, mid0 - c0),
                            ky_lo, ky_hi, r0, r1);
                    directBpdSpanZ(eo_img, wcp, nf, oyN, oxN, fy, fx,
                                   iy, mid0, mid1, ky_lo, ky_hi, r0,
                                   r1);
                    for (std::int64_t c0 = mid1; c0 < nx; c0 += 16)
                        directBpdEdgeZ(
                            eo_img, wcp, nf, oyN, oxN, fy, fx, iy, c0,
                            std::min<std::int64_t>(16, nx - c0), ky_lo,
                            ky_hi, r0, r1);
                }
            },
            1);
    } else
#endif
    {
    const std::int64_t chunk = rowChunk(ny, batch * cbn, pool.threads());
    const std::int64_t chunks = (ny + chunk - 1) / chunk;
    pool.parallelForDynamic(
        batch * cbn * chunks,
        [&](std::int64_t t, int) {
            const std::int64_t b = t / (cbn * chunks);
            const std::int64_t rem = t % (cbn * chunks);
            const std::int64_t cb = rem / chunks;
            const std::int64_t y0 = (rem % chunks) * chunk;
            const std::int64_t y1 = std::min(ny, y0 + chunk);
            const float *eo_img = eosrc + b * spec.outputElems();
            const float *wcb = wblk + cb * nf * taps * kCB;
            for (std::int64_t iy = y0; iy < y1; ++iy) {
                float *ei_row =
                    eib + ((b * cbn + cb) * ny + iy) * nx * kCB;
                if (spec.sy == 1 && spec.sx == 1) {
                    const std::int64_t ky_lo =
                        std::max<std::int64_t>(0, iy - oyN + 1);
                    const std::int64_t ky_hi =
                        std::min<std::int64_t>(fy - 1, iy);
                    const std::int64_t mid0 = fx - 1;
                    const std::int64_t mid1 = oxN;  // exclusive
                    if (mid0 >= mid1) {
                        for (std::int64_t ix = 0; ix < nx; ++ix)
                            directBpdPixel(
                                eo_img, wcb, nf, oyN, oxN, fy, fx, iy,
                                ix, ky_lo, ky_hi,
                                std::max<std::int64_t>(0, ix - oxN + 1),
                                std::min<std::int64_t>(fx - 1, ix),
                                ei_row);
                        continue;
                    }
                    for (std::int64_t ix = 0; ix < mid0; ++ix)
                        directBpdPixel(eo_img, wcb, nf, oyN, oxN, fy,
                                       fx, iy, ix, ky_lo, ky_hi, 0, ix,
                                       ei_row);
                    std::int64_t x = mid0;
                    for (; x + 8 <= mid1; x += 8)
                        directBpdTile<8>(eo_img, wcb, nf, oyN, oxN, fy,
                                         fx, iy, x, ky_lo, ky_hi,
                                         ei_row);
                    for (; x + 4 <= mid1; x += 4)
                        directBpdTile<4>(eo_img, wcb, nf, oyN, oxN, fy,
                                         fx, iy, x, ky_lo, ky_hi,
                                         ei_row);
                    for (; x < mid1; ++x)
                        directBpdTile<1>(eo_img, wcb, nf, oyN, oxN, fy,
                                         fx, iy, x, ky_lo, ky_hi,
                                         ei_row);
                    for (std::int64_t ix = mid1; ix < nx; ++ix)
                        directBpdPixel(eo_img, wcb, nf, oyN, oxN, fy,
                                       fx, iy, ix, ky_lo, ky_hi,
                                       ix - oxN + 1, fx - 1, ei_row);
                } else {
                    for (std::int64_t ix = 0; ix < nx; ++ix)
                        directBpdPixelStrided(eo_img, wcb, nf, oyN,
                                              oxN, fy, fx, spec.sy,
                                              spec.sx, iy, ix, ei_row);
                }
            }
        },
        1);
    }

    float *dst = ei.data();
    pool.parallelForDynamic(
        batch * cbn,
        [&](std::int64_t i, int) {
            unpackImageBlockNchwc(eib + (i / cbn) * ei_img,
                                  dst + (i / cbn) * spec.inputElems(),
                                  spec.nc, ny, nx, kCB, i % cbn);
        },
        1);
#else
    const std::int64_t eo_stride = spec.outputElems();
    const std::int64_t ei_stride = spec.inputElems();
    const float *src = eo.data();
    float *dst = ei.data();
    const float *wsrc = weights.data();
    pool.parallelForDynamic(
        batch,
        [&](std::int64_t b, int) {
            const float *eo_b = stagedMaskedEo(
                spec, src + b * eo_stride, b * eo_stride, mask);
            convBackwardDataRef(spec, eo_b, wsrc, dst + b * ei_stride);
        },
        1);
#endif
}

void
DirectEngine::backwardWeights(const ConvSpec &spec, const Tensor &eo,
                              const Tensor &in, Tensor &dweights,
                              ThreadPool &pool, const BpMask &mask) const
{
    const std::int64_t batch = eo.shape()[0];
    checkActivation(spec, in, batch, spec.nc, spec.ny, spec.nx, "in");
    if (eo.shape() != Shape{batch, spec.nf, spec.outY(), spec.outX()})
        panic("direct eo: shape %s does not match conv %s",
              eo.shape().str().c_str(), spec.str().c_str());
    checkWeights(spec, dweights);

#if defined(__AVX2__) && defined(__FMA__)
    const std::int64_t ny = spec.ny, nx = spec.nx;
    const std::int64_t oyN = spec.outY(), oxN = spec.outX();
    const std::int64_t fy = spec.fy, fx = spec.fx;
    const std::int64_t nf = spec.nf, nc = spec.nc;
    const std::int64_t cbn = blockCount(nc), kbn = blockCount(nf);
    ScratchArena &arena = ScratchArena::forThread();

    // Errors -> blocked [B][K/8][Oy][Ox][8] with the fused ReLU mask
    // applied during the pack (pad lanes zero, so they contribute
    // nothing to the pad rows of the gradient tiles).
    const std::int64_t plane = oyN * oxN;
    const float *eop = eo.data();
    const float *inp = in.data();
    float *dwp = dweights.data();

#ifdef SPG_DIRECT_AVX512
    // Feature-block PAIRS: [B][K/16][Oy][Ox][16ko] staged errors feed
    // full-zmm gradient tiles; a half-dead tail pair stages zeros in
    // lanes 8-15, which accumulate nothing the unpack would read.
    const std::int64_t kpn = (kbn + 1) / 2;
    const std::int64_t eo_img = kpn * plane * 16;
    float *eob = arena.get(kSlotDirectIn,
                           static_cast<std::size_t>(batch * eo_img));
    pool.parallelForDynamic(
        batch * kpn,
        [&](std::int64_t i, int) {
            const std::int64_t b = i / kpn, kp = i % kpn;
            const std::int64_t klive =
                std::min<std::int64_t>(16, nf - kp * 16);
            const std::int64_t base = (b * nf + kp * 16) * plane;
            const float *src = eop + base;
            float *dst = eob + b * eo_img + kp * plane * 16;
            for (std::int64_t p = 0; p < plane; ++p) {
                std::int64_t ki = 0;
                for (; ki < klive; ++ki) {
                    float v = src[ki * plane + p];
                    if (mask.active())
                        v = mask.mask[base + ki * plane + p] ? v : 0.0f;
                    dst[p * 16 + ki] = v;
                }
                for (; ki < 16; ++ki)
                    dst[p * 16 + ki] = 0.0f;
            }
        },
        1);
    assertBlockedAlignment(eob, "blocked eo staging");

    pool.parallelForDynamic(
        kpn * cbn * fy,
        [&](std::int64_t t, int) {
            const std::int64_t kp = t / (cbn * fy);
            const std::int64_t rem = t % (cbn * fy);
            const std::int64_t cb = rem / fy;
            const std::int64_t ky = rem % fy;
            const std::int64_t klive =
                std::min<std::int64_t>(16, nf - kp * 16);
            const std::int64_t clive = std::min(kCB, nc - cb * kCB);
            float *dwbuf = ScratchArena::forThread().get(
                kSlotDirectDw, static_cast<std::size_t>(fx * kCB * 16));
            std::memset(dwbuf, 0,
                        static_cast<std::size_t>(fx * kCB * 16) *
                            sizeof(float));
            for (std::int64_t b = 0; b < batch; ++b) {
                const float *eo_blk = eob + b * eo_img + kp * plane * 16;
                const float *base = inp + (b * nc + cb * kCB) * ny * nx;
                directBpwRowZ<4>(eo_blk, base, nx, 1, ny * nx, oyN, oxN,
                                 fx, spec.sy, spec.sx, ky, clive, dwbuf);
            }
            for (std::int64_t ko = 0; ko < klive; ++ko)
                for (std::int64_t ci = 0; ci < clive; ++ci) {
                    float *d =
                        dwp +
                        (((kp * 16 + ko) * nc + cb * kCB + ci) * fy +
                         ky) *
                            fx;
                    for (std::int64_t kx = 0; kx < fx; ++kx)
                        d[kx] = dwbuf[(kx * kCB + ci) * 16 + ko];
                }
        },
        1);
#else
    const std::int64_t eo_img = kbn * plane * kCB;
    float *eob = arena.get(kSlotDirectIn,
                           static_cast<std::size_t>(batch * eo_img));
    pool.parallelForDynamic(
        batch * kbn,
        [&](std::int64_t i, int) {
            const std::int64_t b = i / kbn, kb = i % kbn;
            const std::int64_t klive = std::min(kCB, nf - kb * kCB);
            const std::int64_t base = (b * nf + kb * kCB) * plane;
            const float *src = eop + base;
            float *dst = eob + b * eo_img + kb * plane * kCB;
            for (std::int64_t p = 0; p < plane; ++p) {
                std::int64_t ki = 0;
                for (; ki < klive; ++ki) {
                    float v = src[ki * plane + p];
                    if (mask.active())
                        v = mask.mask[base + ki * plane + p] ? v : 0.0f;
                    dst[p * kCB + ki] = v;
                }
                for (; ki < kCB; ++ki)
                    dst[p * kCB + ki] = 0.0f;
            }
        },
        1);
    assertBlockedAlignment(eob, "blocked eo staging");

    pool.parallelForDynamic(
        kbn * cbn * fy,
        [&](std::int64_t t, int) {
            const std::int64_t kb = t / (cbn * fy);
            const std::int64_t rem = t % (cbn * fy);
            const std::int64_t cb = rem / fy;
            const std::int64_t ky = rem % fy;
            const std::int64_t klive = std::min(kCB, nf - kb * kCB);
            const std::int64_t clive = std::min(kCB, nc - cb * kCB);
            float *dwbuf = ScratchArena::forThread().get(
                kSlotDirectDw,
                static_cast<std::size_t>(fx * kCB * kCB));
            std::memset(dwbuf, 0,
                        static_cast<std::size_t>(fx * kCB * kCB) *
                            sizeof(float));
            for (std::int64_t b = 0; b < batch; ++b) {
                const float *eo_blk =
                    eob + b * eo_img + kb * plane * kCB;
                const float *base = inp + (b * nc + cb * kCB) * ny * nx;
                directBpwRow<4>(eo_blk, base, nx, 1, ny * nx, oyN, oxN,
                                fx, spec.sy, spec.sx, ky, clive, dwbuf);
            }
            for (std::int64_t ko = 0; ko < klive; ++ko)
                for (std::int64_t ci = 0; ci < clive; ++ci) {
                    float *d =
                        dwp +
                        (((kb * kCB + ko) * nc + cb * kCB + ci) * fy +
                         ky) *
                            fx;
                    for (std::int64_t kx = 0; kx < fx; ++kx)
                        d[kx] = dwbuf[(kx * kCB + ci) * kCB + ko];
                }
        },
        1);
#endif
#else
    // Serial over the batch: the reference accumulates image
    // contributions in order into the shared gradient.
    const std::int64_t eo_stride = spec.outputElems();
    const std::int64_t in_stride = spec.inputElems();
    dweights.zero();
    for (std::int64_t b = 0; b < batch; ++b) {
        const float *eo_b = stagedMaskedEo(
            spec, eo.data() + b * eo_stride, b * eo_stride, mask);
        convBackwardWeightsRef(spec, eo_b, in.data() + b * in_stride,
                               dweights.data());
    }
    (void)pool;
#endif
}

} // namespace spg
