#include "conv/unfold.hh"

#include <cstring>

namespace spg {

void
unfoldImage(const ConvSpec &spec, const float *in, float *u)
{
    std::int64_t oy = spec.outY(), ox = spec.outX();
    std::int64_t cols = oy * ox;
    for (std::int64_t c = 0; c < spec.nc; ++c) {
        const float *plane = in + c * spec.ny * spec.nx;
        for (std::int64_t ky = 0; ky < spec.fy; ++ky) {
            for (std::int64_t kx = 0; kx < spec.fx; ++kx) {
                float *urow =
                    u + ((c * spec.fy + ky) * spec.fx + kx) * cols;
                for (std::int64_t y = 0; y < oy; ++y) {
                    const float *src =
                        plane + (y * spec.sy + ky) * spec.nx + kx;
                    float *dst = urow + y * ox;
                    if (spec.sx == 1) {
                        std::memcpy(dst, src, ox * sizeof(float));
                    } else {
                        for (std::int64_t x = 0; x < ox; ++x)
                            dst[x] = src[x * spec.sx];
                    }
                }
            }
        }
    }
}

void
foldImageAccumulate(const ConvSpec &spec, const float *u, float *ei)
{
    std::int64_t oy = spec.outY(), ox = spec.outX();
    std::int64_t cols = oy * ox;
    for (std::int64_t c = 0; c < spec.nc; ++c) {
        float *plane = ei + c * spec.ny * spec.nx;
        for (std::int64_t ky = 0; ky < spec.fy; ++ky) {
            for (std::int64_t kx = 0; kx < spec.fx; ++kx) {
                const float *urow =
                    u + ((c * spec.fy + ky) * spec.fx + kx) * cols;
                for (std::int64_t y = 0; y < oy; ++y) {
                    float *dst = plane + (y * spec.sy + ky) * spec.nx + kx;
                    const float *src = urow + y * ox;
                    for (std::int64_t x = 0; x < ox; ++x)
                        dst[x * spec.sx] += src[x];
                }
            }
        }
    }
}

} // namespace spg
