#include "conv/engine_winograd.hh"

#include <cstring>
#include <vector>

#include "blas/gemm.hh"
#include "conv/scratch.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace spg {

namespace {

/**
 * Kernel transform U = G g G^T for one 3x3 kernel g, with
 * G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]. Result is 4x4.
 */
void
transformKernel(const float *g, float *u)
{
    // t = G g (4x3).
    float t[12];
    for (int col = 0; col < 3; ++col) {
        float g0 = g[0 * 3 + col];
        float g1 = g[1 * 3 + col];
        float g2 = g[2 * 3 + col];
        t[0 * 3 + col] = g0;
        t[1 * 3 + col] = 0.5f * (g0 + g1 + g2);
        t[2 * 3 + col] = 0.5f * (g0 - g1 + g2);
        t[3 * 3 + col] = g2;
    }
    // u = t G^T (4x4).
    for (int row = 0; row < 4; ++row) {
        float t0 = t[row * 3 + 0];
        float t1 = t[row * 3 + 1];
        float t2 = t[row * 3 + 2];
        u[row * 4 + 0] = t0;
        u[row * 4 + 1] = 0.5f * (t0 + t1 + t2);
        u[row * 4 + 2] = 0.5f * (t0 - t1 + t2);
        u[row * 4 + 3] = t2;
    }
}

/**
 * Input-tile transform V = B^T d B for one 4x4 tile d, with
 * B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
 */
void
transformTile(const float *d, std::int64_t row_stride, float *v)
{
    float t[16];
    for (int col = 0; col < 4; ++col) {
        float d0 = d[0 * row_stride + col];
        float d1 = d[1 * row_stride + col];
        float d2 = d[2 * row_stride + col];
        float d3 = d[3 * row_stride + col];
        t[0 * 4 + col] = d0 - d2;
        t[1 * 4 + col] = d1 + d2;
        t[2 * 4 + col] = d2 - d1;
        t[3 * 4 + col] = d1 - d3;
    }
    for (int row = 0; row < 4; ++row) {
        float t0 = t[row * 4 + 0];
        float t1 = t[row * 4 + 1];
        float t2 = t[row * 4 + 2];
        float t3 = t[row * 4 + 3];
        v[row * 4 + 0] = t0 - t2;
        v[row * 4 + 1] = t1 + t2;
        v[row * 4 + 2] = t2 - t1;
        v[row * 4 + 3] = t1 - t3;
    }
}

/**
 * Output transform Y = A^T m A for one 4x4 component vector m, with
 * A^T = [[1,1,1,0],[0,1,-1,-1]]. Result is 2x2.
 */
void
transformOutput(const float *m, float *y)
{
    float t[8];
    for (int col = 0; col < 4; ++col) {
        float m0 = m[0 * 4 + col];
        float m1 = m[1 * 4 + col];
        float m2 = m[2 * 4 + col];
        float m3 = m[3 * 4 + col];
        t[0 * 4 + col] = m0 + m1 + m2;
        t[1 * 4 + col] = m1 - m2 - m3;
    }
    for (int row = 0; row < 2; ++row) {
        float t0 = t[row * 4 + 0];
        float t1 = t[row * 4 + 1];
        float t2 = t[row * 4 + 2];
        float t3 = t[row * 4 + 3];
        y[row * 2 + 0] = t0 + t1 + t2;
        y[row * 2 + 1] = t1 - t2 - t3;
    }
}

/** Direct scalar computation of one output element (edge strips). */
float
directOutput(const ConvSpec &spec, const float *image, const float *w,
             std::int64_t f, std::int64_t y, std::int64_t x)
{
    float sum = 0;
    for (std::int64_t c = 0; c < spec.nc; ++c) {
        const float *plane = image + c * spec.ny * spec.nx;
        const float *wk = w + (f * spec.nc + c) * 9;
        for (int ky = 0; ky < 3; ++ky)
            for (int kx = 0; kx < 3; ++kx)
                sum += plane[(y + ky) * spec.nx + x + kx] *
                       wk[ky * 3 + kx];
    }
    return sum;
}

} // namespace

void
WinogradEngine::forward(const ConvSpec &spec, const Tensor &in,
                        const Tensor &weights, Tensor &out,
                        ThreadPool &pool, const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "winograd FP");
    checkForwardShapes(spec, in, weights, out);
    if (!appliesTo(spec, 0.0))
        fatal("winograd engine requires a 3x3 stride-1 convolution, "
              "got %s",
              spec.str().c_str());

    std::int64_t batch = in.shape()[0];
    std::int64_t oy = spec.outY(), ox = spec.outX();
    std::int64_t oy2 = oy & ~1LL, ox2 = ox & ~1LL;
    std::int64_t tiles_y = oy2 / 2, tiles_x = ox2 / 2;
    std::int64_t tiles = tiles_y * tiles_x;

    // Kernel transforms in COMPONENT-major layout u[i][f][c] so that
    // each of the 16 Winograd components becomes one dense
    // (Nf x Nc) x (Nc x T) GEMM — the Lavin formulation, which reuses
    // the blocked SGEMM instead of per-tile scalar loops.
    std::vector<float> u(16 * static_cast<std::size_t>(spec.nf) *
                         spec.nc);
    pool.parallelFor2D(
        spec.nf, spec.nc,
        [&](std::int64_t f, std::int64_t c, int) {
            std::int64_t i = f * spec.nc + c;
            float tile_u[16];
            transformKernel(weights.data() + i * 9, tile_u);
            for (int comp = 0; comp < 16; ++comp)
                u[(static_cast<std::size_t>(comp) * spec.nf * spec.nc) +
                  i] = tile_u[comp];
        },
        /*grain=*/spec.nc); // one f-row of cheap transforms per claim

    std::int64_t fc = spec.nf * spec.nc;
    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        const float *image = in.data() + b * spec.inputElems();
        float *out_image = out.data() + b * spec.outputElems();

        if (tiles > 0) {
            ScratchArena &arena = ScratchArena::forThread();
            // v[i][c][t] and m[i][f][t].
            float *v = arena.get(
                kSlotLayoutA,
                16 * static_cast<std::size_t>(spec.nc) * tiles);
            float *m = arena.get(
                kSlotLayoutB,
                16 * static_cast<std::size_t>(spec.nf) * tiles);

            // Tile transforms, scattered component-major.
            for (std::int64_t c = 0; c < spec.nc; ++c) {
                const float *plane = image + c * spec.ny * spec.nx;
                for (std::int64_t ty = 0; ty < tiles_y; ++ty) {
                    for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
                        float tile_v[16];
                        transformTile(plane + 2 * ty * spec.nx + 2 * tx,
                                      spec.nx, tile_v);
                        std::int64_t t = ty * tiles_x + tx;
                        for (int comp = 0; comp < 16; ++comp)
                            v[(static_cast<std::size_t>(comp) * spec.nc +
                               c) * tiles + t] = tile_v[comp];
                    }
                }
            }

            // 16 component GEMMs: m[i] = u[i] * v[i].
            for (int comp = 0; comp < 16; ++comp) {
                sgemm(Trans::No, Trans::No, spec.nf, tiles, spec.nc,
                      u.data() + static_cast<std::size_t>(comp) * fc,
                      v + static_cast<std::size_t>(comp) * spec.nc *
                              tiles,
                      0.0f,
                      m + static_cast<std::size_t>(comp) * spec.nf *
                              tiles);
            }

            // Output transforms and scatter.
            for (std::int64_t f = 0; f < spec.nf; ++f) {
                float *plane = out_image + f * oy * ox;
                for (std::int64_t t = 0; t < tiles; ++t) {
                    float comps[16];
                    for (int comp = 0; comp < 16; ++comp)
                        comps[comp] =
                            m[(static_cast<std::size_t>(comp) * spec.nf +
                               f) * tiles + t];
                    float y[4];
                    transformOutput(comps, y);
                    std::int64_t ty = t / tiles_x, tx = t % tiles_x;
                    float *dst = plane + 2 * ty * ox + 2 * tx;
                    dst[0] = y[0];
                    dst[1] = y[1];
                    dst[ox] = y[2];
                    dst[ox + 1] = y[3];
                }
            }
        }

        // Edge strips (odd oy/ox): direct computation.
        for (std::int64_t f = 0; f < spec.nf; ++f) {
            float *plane = out_image + f * oy * ox;
            for (std::int64_t y = oy2; y < oy; ++y)
                for (std::int64_t x = 0; x < ox; ++x)
                    plane[y * ox + x] = directOutput(
                        spec, image, weights.data(), f, y, x);
            for (std::int64_t y = 0; y < oy2; ++y)
                for (std::int64_t x = ox2; x < ox; ++x)
                    plane[y * ox + x] = directOutput(
                        spec, image, weights.data(), f, y, x);
        }

        // This worker owns the whole image and the edge strips above
        // were its last writes: fuse the epilogue per image.
        epilogue.apply(out_image, b * spec.outputElems(),
                       spec.outputElems());
    }, /*grain=*/1);
}

} // namespace spg
