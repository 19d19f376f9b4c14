#include "blas/gemm.hh"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "util/aligned.hh"

namespace spg {

namespace {

/** Micro-tile height: rows of C per micro-kernel invocation. */
constexpr std::int64_t kMr = 6;
#if defined(__AVX512F__)
/** Micro-tile width; two 16-float AVX-512 vectors. */
constexpr std::int64_t kNr = 32;
#else
/** Micro-tile width; two 8-float AVX vectors. */
constexpr std::int64_t kNr = 16;
#endif

/** Cache-blocking parameters (L2-resident A panel, L1-resident B). */
constexpr std::int64_t kMc = 120;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 2048;

/** @return x rounded up to the next multiple of to. */
constexpr std::int64_t
roundUpTo(std::int64_t x, std::int64_t to)
{
    return (x + to - 1) / to * to;
}

/** Element of op(X) at row r, col c for a row-major X with stride ld. */
inline float
opAt(Trans t, const float *x, std::int64_t ld, std::int64_t r,
     std::int64_t c)
{
    return t == Trans::No ? x[r * ld + c] : x[c * ld + r];
}

/**
 * Pack an mc x kc block of op(A), scaled by alpha, into kMr-row panels
 * stored panel-major: buf[panel][p][i] with i the row within the
 * panel. Rows beyond mc are zero-filled so the micro-kernel never
 * branches.
 */
void
packA(Trans ta, const float *a, std::int64_t lda, std::int64_t row0,
      std::int64_t col0, std::int64_t mc, std::int64_t kc, float alpha,
      float *buf)
{
    for (std::int64_t ir = 0; ir < mc; ir += kMr) {
        std::int64_t rows = std::min(kMr, mc - ir);
        float *panel = buf + ir * kc;
        for (std::int64_t p = 0; p < kc; ++p) {
            for (std::int64_t i = 0; i < rows; ++i) {
                panel[p * kMr + i] =
                    alpha * opAt(ta, a, lda, row0 + ir + i, col0 + p);
            }
            for (std::int64_t i = rows; i < kMr; ++i)
                panel[p * kMr + i] = 0.0f;
        }
    }
}

/**
 * Pack a kc x nc block of op(B) into kNr-column panels stored
 * panel-major: buf[panel][p][j]. Columns beyond nc are zero-filled.
 */
void
packB(Trans tb, const float *b, std::int64_t ldb, std::int64_t row0,
      std::int64_t col0, std::int64_t kc, std::int64_t nc, float *buf)
{
    for (std::int64_t jr = 0; jr < nc; jr += kNr) {
        std::int64_t cols = std::min(kNr, nc - jr);
        float *panel = buf + jr * kc;
        if (tb == Trans::No && cols == kNr) {
            // Fast path: contiguous row segments.
            for (std::int64_t p = 0; p < kc; ++p) {
                std::memcpy(panel + p * kNr,
                            b + (row0 + p) * ldb + col0 + jr,
                            kNr * sizeof(float));
            }
        } else {
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < cols; ++j) {
                    panel[p * kNr + j] =
                        opAt(tb, b, ldb, row0 + p, col0 + jr + j);
                }
                for (std::int64_t j = cols; j < kNr; ++j)
                    panel[p * kNr + j] = 0.0f;
            }
        }
    }
}

#if defined(__AVX512F__)

/**
 * AVX-512 micro-kernel: C_tile = sum_p a_panel[p] (x) b_panel[p],
 * written into a dense kMr x kNr tile buffer. Two 16-lane vectors per
 * row double the per-cycle FLOPs of the AVX2 variant.
 */
inline void
microKernel(std::int64_t kc, const float *a, const float *b, float *tile)
{
    __m512 acc[kMr][2];
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = _mm512_setzero_ps();
        acc[i][1] = _mm512_setzero_ps();
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        __m512 b0 = _mm512_load_ps(b + p * kNr);
        __m512 b1 = _mm512_load_ps(b + p * kNr + 16);
        const float *ap = a + p * kMr;
        for (int i = 0; i < kMr; ++i) {
            __m512 ai = _mm512_set1_ps(ap[i]);
            acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
        }
    }
    for (int i = 0; i < kMr; ++i) {
        _mm512_store_ps(tile + i * kNr, acc[i][0]);
        _mm512_store_ps(tile + i * kNr + 16, acc[i][1]);
    }
}

#elif defined(__AVX2__) && defined(__FMA__)

/**
 * AVX2/FMA micro-kernel: C_tile = sum_p a_panel[p] (x) b_panel[p],
 * written into a dense kMr x kNr tile buffer.
 */
inline void
microKernel(std::int64_t kc, const float *a, const float *b, float *tile)
{
    __m256 acc[kMr][2];
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = _mm256_setzero_ps();
        acc[i][1] = _mm256_setzero_ps();
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        __m256 b0 = _mm256_load_ps(b + p * kNr);
        __m256 b1 = _mm256_load_ps(b + p * kNr + 8);
        const float *ap = a + p * kMr;
        for (int i = 0; i < kMr; ++i) {
            __m256 ai = _mm256_broadcast_ss(ap + i);
            acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
        }
    }
    for (int i = 0; i < kMr; ++i) {
        _mm256_store_ps(tile + i * kNr, acc[i][0]);
        _mm256_store_ps(tile + i * kNr + 8, acc[i][1]);
    }
}

#else

/** Scalar fallback micro-kernel for non-AVX2 builds. */
inline void
microKernel(std::int64_t kc, const float *a, const float *b, float *tile)
{
    float acc[kMr][kNr] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float *ap = a + p * kMr;
        const float *bp = b + p * kNr;
        for (int i = 0; i < kMr; ++i)
            for (int j = 0; j < kNr; ++j)
                acc[i][j] += ap[i] * bp[j];
    }
    for (int i = 0; i < kMr; ++i)
        for (int j = 0; j < kNr; ++j)
            tile[i * kNr + j] = acc[i][j];
}

#endif

/** Per-thread packing scratch, grown on demand. */
struct Scratch
{
    AlignedBuffer<float> a;
    AlignedBuffer<float> b;
    alignas(64) float tile[kMr * kNr];

    void
    ensure(std::size_t a_count, std::size_t b_count)
    {
        if (a.size() < a_count)
            a = AlignedBuffer<float>(a_count);
        if (b.size() < b_count)
            b = AlignedBuffer<float>(b_count);
    }
};

Scratch &
scratch()
{
    static thread_local Scratch s;
    return s;
}

/**
 * Add the valid region of a micro-tile into C, applying beta exactly
 * once per output element (on the first k block).
 */
inline void
writeTile(const float *tile, float *c, std::int64_t ldc, std::int64_t rows,
          std::int64_t cols, float beta)
{
    for (std::int64_t i = 0; i < rows; ++i) {
        float *crow = c + i * ldc;
        const float *trow = tile + i * kNr;
        if (beta == 0.0f) {
            for (std::int64_t j = 0; j < cols; ++j)
                crow[j] = trow[j];
        } else if (beta == 1.0f) {
            for (std::int64_t j = 0; j < cols; ++j)
                crow[j] += trow[j];
        } else {
            for (std::int64_t j = 0; j < cols; ++j)
                crow[j] = beta * crow[j] + trow[j];
        }
    }
}

/** C = beta * C over an m x n region (degenerate k/alpha cases). */
void
scaleC(std::int64_t m, std::int64_t n, float beta, float *c,
       std::int64_t ldc)
{
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            c[i * ldc + j] = beta == 0.0f ? 0.0f : beta * c[i * ldc + j];
}

/**
 * The blocking loop nest: kNc-wide column blocks of C, kKc-deep k
 * blocks (op(B) block packed once per (jc, pc)), kMc-tall row blocks
 * (op(A) block packed with alpha baked in), then the micro-tiles.
 *
 * Kept out of line on purpose: a build that inlined it into sgemm, its
 * only caller, ran the 64 x 16 x 1600 layer shape about 5% slower.
 */
__attribute__((noinline)) void
gemmBlocked(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
            std::int64_t k, float alpha, const float *a, std::int64_t lda,
            const float *b, std::int64_t ldb, float beta, float *c,
            std::int64_t ldc)
{
    if (m <= 0)
        return;
    if (k <= 0 || alpha == 0.0f) {
        scaleC(m, n, beta, c, ldc);
        return;
    }

    Scratch &s = scratch();
    s.ensure(static_cast<std::size_t>(kMc) * kKc,
             static_cast<std::size_t>(kKc) * kNc);

    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        std::int64_t nc = std::min(kNc, n - jc);
        std::int64_t nc_padded = roundUpTo(nc, kNr);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            std::int64_t kc = std::min(kKc, k - pc);
            float beta_eff = pc == 0 ? beta : 1.0f;
            packB(tb, b, ldb, pc, jc, kc, nc, s.b.data());
            const float *bblock = s.b.data();
            for (std::int64_t ic = 0; ic < m; ic += kMc) {
                std::int64_t mc = std::min(kMc, m - ic);
                packA(ta, a, lda, ic, pc, mc, kc, alpha, s.a.data());
                const float *ablock = s.a.data();
                for (std::int64_t jr = 0; jr < nc_padded; jr += kNr) {
                    const float *bp = bblock + jr * kc;
                    std::int64_t cols = std::min(kNr, nc - jr);
                    for (std::int64_t ir = 0; ir < mc; ir += kMr) {
                        const float *ap = ablock + ir * kc;
                        std::int64_t rows = std::min(kMr, mc - ir);
                        microKernel(kc, ap, bp, s.tile);
                        writeTile(s.tile,
                                  c + (ic + ir) * ldc + jc + jr, ldc,
                                  rows, cols, beta_eff);
                    }
                }
            }
        }
    }
}

/** Independent chains gemmNtPacked runs side by side, enough to hide
 *  the multiply-add latency even for a single row of C. */
constexpr int kNtChains = 4;

/**
 * N 1 x kNtLanes tiles of one k block: lane l of tile i is the chain
 * sum_p a[i][p] * b[i][p * kNtLanes + l] from zero in p order, with
 * microKernel's multiply-add, operand order included.
 */
template <int N>
inline void
ntChains(std::int64_t kc, const float *const *a, const float *const *b,
         float *tiles)
{
#if defined(__AVX512F__)
    __m512 acc[N];
    for (int i = 0; i < N; ++i)
        acc[i] = _mm512_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p)
        for (int i = 0; i < N; ++i)
            acc[i] = _mm512_fmadd_ps(
                _mm512_set1_ps(a[i][p]),
                _mm512_loadu_ps(b[i] + p * kNtLanes), acc[i]);
    for (int i = 0; i < N; ++i)
        _mm512_storeu_ps(tiles + i * kNtLanes, acc[i]);
#elif defined(__AVX2__) && defined(__FMA__)
    __m256 acc[N][2];
    for (int i = 0; i < N; ++i)
        acc[i][0] = acc[i][1] = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        for (int i = 0; i < N; ++i) {
            __m256 ai = _mm256_broadcast_ss(a[i] + p);
            const float *bp = b[i] + p * kNtLanes;
            acc[i][0] = _mm256_fmadd_ps(ai, _mm256_loadu_ps(bp), acc[i][0]);
            acc[i][1] =
                _mm256_fmadd_ps(ai, _mm256_loadu_ps(bp + 8), acc[i][1]);
        }
    }
    for (int i = 0; i < N; ++i) {
        _mm256_storeu_ps(tiles + i * kNtLanes, acc[i][0]);
        _mm256_storeu_ps(tiles + i * kNtLanes + 8, acc[i][1]);
    }
#else
    float acc[N][kNtLanes] = {};
    for (std::int64_t p = 0; p < kc; ++p)
        for (int i = 0; i < N; ++i)
            for (int l = 0; l < kNtLanes; ++l)
                acc[i][l] += a[i][p] * b[i][p * kNtLanes + l];
    for (int i = 0; i < N; ++i)
        for (int l = 0; l < kNtLanes; ++l)
            tiles[i * kNtLanes + l] = acc[i][l];
#endif
}

/**
 * Rows [r0, r1) of gemmNtPacked. Per column block, the (k block, row)
 * tiles are visited k block first, so the rows of one k block share
 * its panel while it is in L1 and a lone row still overlaps its k
 * blocks; each row folds its tiles in k-block order through
 * writeTile, as gemmBlocked does.
 */
void
gemmNtRows(std::int64_t r0, std::int64_t r1, std::int64_t n,
           std::int64_t k, const float *a, const float *bt, float *c)
{
    alignas(64) float tiles[kNtChains * kNtLanes];
    const std::int64_t rows = r1 - r0;
    const std::int64_t chains = (k + kKc - 1) / kKc * rows;
    for (std::int64_t jb = 0; jb < n; jb += kNtLanes) {
        const std::int64_t cols = std::min(kNtLanes, n - jb);
        const float *panel = bt + jb * k;
        for (std::int64_t g = 0; g < chains;) {
            // Up to kNtChains consecutive tiles of one depth (only the
            // last k block can be shallower).
            const float *ap[kNtChains];
            const float *bp[kNtChains];
            std::int64_t first = g;
            std::int64_t kc = std::min(kKc, k - g / rows * kKc);
            int count = 0;
            for (; count < kNtChains && g < chains &&
                   std::min(kKc, k - g / rows * kKc) == kc;
                 ++count, ++g) {
                std::int64_t pc = g / rows * kKc;
                ap[count] = a + (r0 + g % rows) * k + pc;
                bp[count] = panel + pc * kNtLanes;
            }
            switch (count) {
              case 1: ntChains<1>(kc, ap, bp, tiles); break;
              case 2: ntChains<2>(kc, ap, bp, tiles); break;
              case 3: ntChains<3>(kc, ap, bp, tiles); break;
              default: ntChains<kNtChains>(kc, ap, bp, tiles); break;
            }
            for (int i = 0; i < count; ++i) {
                std::int64_t t = first + i;
                writeTile(tiles + i * kNtLanes,
                          c + (r0 + t % rows) * n + jb, n, 1, cols,
                          t < rows ? 0.0f : 1.0f);
            }
        }
    }
}

} // namespace

void
gemmNaive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float *a, std::int64_t lda,
          const float *b, std::int64_t ldb, float beta, float *c,
          std::int64_t ldc)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double sum = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                sum += static_cast<double>(opAt(ta, a, lda, i, p)) *
                       static_cast<double>(opAt(tb, b, ldb, p, j));
            }
            float prev = beta == 0.0f ? 0.0f : beta * c[i * ldc + j];
            c[i * ldc + j] = prev + alpha * static_cast<float>(sum);
        }
    }
}

void
sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
      float alpha, const float *a, std::int64_t lda, const float *b,
      std::int64_t ldb, float beta, float *c, std::int64_t ldc)
{
    if (n <= 0)
        return;
    gemmBlocked(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void
parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
             std::int64_t n, std::int64_t k, float alpha, const float *a,
             std::int64_t lda, const float *b, std::int64_t ldb,
             float beta, float *c, std::int64_t ldc)
{
    int p = pool.threads();
    if (p <= 1 || static_cast<std::int64_t>(m) * n * k < 32 * 32 * 32) {
        sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }

    if (m >= p * kMr || m >= n) {
        // Partition rows of C: each worker multiplies a slab of op(A)
        // against ALL of op(B) — the per-core traffic the paper's
        // AIT-per-core analysis charges to Parallel-GEMM.
        pool.parallelFor(m, [&](std::int64_t begin, std::int64_t end,
                                int) {
            const float *a_slab = ta == Trans::No ? a + begin * lda
                                                  : a + begin;
            sgemm(ta, tb, end - begin, n, k, alpha, a_slab, lda, b, ldb,
                  beta, c + begin * ldc, ldc);
        });
    } else {
        // Partition columns of C.
        pool.parallelFor(n, [&](std::int64_t begin, std::int64_t end,
                                int) {
            const float *b_slab = tb == Trans::No ? b + begin
                                                  : b + begin * ldb;
            sgemm(ta, tb, m, end - begin, k, alpha, a, lda, b_slab, ldb,
                  beta, c + begin, ldc);
        });
    }
}

void
sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
      const float *a, const float *b, float beta, float *c)
{
    std::int64_t lda = ta == Trans::No ? k : m;
    std::int64_t ldb = tb == Trans::No ? n : k;
    sgemm(ta, tb, m, n, k, 1.0f, a, lda, b, ldb, beta, c, n);
}

void
parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
             std::int64_t n, std::int64_t k, const float *a,
             const float *b, float beta, float *c)
{
    std::int64_t lda = ta == Trans::No ? k : m;
    std::int64_t ldb = tb == Trans::No ? n : k;
    parallelGemm(pool, ta, tb, m, n, k, 1.0f, a, lda, b, ldb, beta, c, n);
}

std::int64_t
packedNtElems(std::int64_t n, std::int64_t k)
{
    return roundUpTo(n, kNtLanes) * k;
}

void
packNtColumns(const float *b, std::int64_t n, std::int64_t k,
              std::int64_t p0, std::int64_t p1, float *bt)
{
    for (std::int64_t j = 0; j < n; ++j) {
        const float *row = b + j * k;
        float *dst = bt + (j / kNtLanes) * k * kNtLanes + j % kNtLanes;
        for (std::int64_t p = p0; p < p1; ++p)
            dst[p * kNtLanes] = row[p];
    }
}

void
gemmNtPacked(ThreadPool &pool, std::int64_t m, std::int64_t n,
             std::int64_t k, const float *a, const float *bt, float *c)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        scaleC(m, n, 0.0f, c, n);
        return;
    }
    pool.parallelFor(m, [&](std::int64_t r0, std::int64_t r1, int) {
        gemmNtRows(r0, r1, n, k, a, bt, c);
    });
}

} // namespace spg
