#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "threading/thread_pool.hh"
#include "util/logging.hh"

namespace spg {

Shape::Shape(std::initializer_list<std::int64_t> extents)
    : dims{1, 1, 1, 1}, rank_(static_cast<int>(extents.size()))
{
    if (extents.size() == 0 || extents.size() > 4)
        panic("Shape requires 1..4 extents, got %zu", extents.size());
    int i = 0;
    for (auto e : extents) {
        if (e <= 0)
            panic("Shape extent %d must be positive, got %lld", i,
                  static_cast<long long>(e));
        dims[i++] = e;
    }
}

std::int64_t
Shape::elements() const
{
    std::int64_t n = 1;
    for (int i = 0; i < 4; ++i)
        n *= dims[i];
    return n;
}

bool
Shape::operator==(const Shape &other) const
{
    return rank_ == other.rank_ && dims == other.dims;
}

std::string
Shape::str() const
{
    std::string out;
    for (int i = 0; i < std::max(rank_, 1); ++i) {
        if (i)
            out += "x";
        out += std::to_string(dims[i]);
    }
    return out;
}

Tensor::Tensor(Shape shape)
    : shape_(shape),
      buffer(static_cast<std::size_t>(shape.elements()))
{
}

Tensor
Tensor::uninitialized(Shape shape)
{
    Tensor t;
    t.shape_ = shape;
    t.buffer = AlignedBuffer<float>(
        kUninit, static_cast<std::size_t>(shape.elements()));
    return t;
}

Tensor
Tensor::view(Shape shape, float *data)
{
    if (!data)
        panic("Tensor::view requires storage");
    Tensor t;
    t.shape_ = shape;
    t.view_ = data;
    return t;
}

Tensor
Tensor::view(Shape shape, float *data, Layout layout)
{
    if (layout.blocked() &&
        (reinterpret_cast<std::uintptr_t>(data) & 63u) != 0) {
        panic("blocked tensor view %s must be 64-byte aligned "
              "(got %p)",
              shape.str().c_str(), static_cast<void *>(data));
    }
    Tensor t = view(shape, data);
    t.layout_ = layout;
    return t;
}

Tensor
Tensor::clone() const
{
    Tensor copy = Tensor::uninitialized(shape_);
    copy.layout_ = layout_;
    std::copy(data(), data() + size(), copy.data());
    return copy;
}

float &
Tensor::at(std::int64_t i, std::int64_t j)
{
    return data()[i * shape_[1] + j];
}

float
Tensor::at(std::int64_t i, std::int64_t j) const
{
    return data()[i * shape_[1] + j];
}

float &
Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k)
{
    return data()[(i * shape_[1] + j) * shape_[2] + k];
}

float
Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const
{
    return data()[(i * shape_[1] + j) * shape_[2] + k];
}

float &
Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l)
{
    return data()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

float
Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const
{
    return data()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

void
Tensor::zero()
{
    if (float *p = data())
        std::memset(p, 0,
                    static_cast<std::size_t>(size()) * sizeof(float));
}

void
Tensor::fill(float value)
{
    std::fill(data(), data() + size(), value);
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    float *p = data();
    for (std::int64_t i = 0; i < size(); ++i)
        p[i] = rng.uniform(lo, hi);
}

void
Tensor::fillGaussian(Rng &rng, float stddev)
{
    float *p = data();
    for (std::int64_t i = 0; i < size(); ++i)
        p[i] = rng.gaussian() * stddev;
}

void
Tensor::sparsify(Rng &rng, double sparsity)
{
    if (sparsity < 0.0 || sparsity > 1.0)
        panic("sparsity %f out of [0, 1]", sparsity);
    float *p = data();
    for (std::int64_t i = 0; i < size(); ++i) {
        if (rng.bernoulli(sparsity))
            p[i] = 0.0f;
    }
}

std::int64_t
Tensor::zeroCount() const
{
    std::int64_t zeros = 0;
    const float *p = data();
    for (std::int64_t i = 0; i < size(); ++i)
        zeros += (p[i] == 0.0f);
    return zeros;
}

double
Tensor::sparsity() const
{
    if (size() == 0)
        return 0.0;
    return static_cast<double>(zeroCount()) / static_cast<double>(size());
}

float
Tensor::maxAbs() const
{
    float best = 0.0f;
    const float *p = data();
    for (std::int64_t i = 0; i < size(); ++i)
        best = std::max(best, std::fabs(p[i]));
    return best;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        panic("maxAbsDiff shape mismatch: %s vs %s",
              a.shape().str().c_str(), b.shape().str().c_str());
    float best = 0.0f;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        float diff = std::fabs(a[i] - b[i]);
        // std::max would drop a NaN; any NaN difference is the answer.
        if (std::isnan(diff))
            return diff;
        best = std::max(best, diff);
    }
    return best;
}

bool
allClose(const Tensor &a, const Tensor &b, float rel_tol, float abs_tol)
{
    if (a.shape() != b.shape())
        return false;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        float tol = abs_tol + rel_tol * std::fabs(b[i]);
        // Negated so a NaN on either side fails.
        if (!(std::fabs(a[i] - b[i]) <= tol))
            return false;
    }
    return true;
}

std::int64_t
liveCount(const float *x, const std::uint8_t *mask, std::int64_t n,
          ThreadPool &pool)
{
    // One cache-line-private partial per participant. A participant
    // that steals runs more than one chunk, hence +=.
    struct alignas(64) Partial
    {
        std::int64_t live = 0;
    };
    std::vector<Partial> partials(static_cast<std::size_t>(pool.threads()));
    pool.parallelFor(n, [&](std::int64_t b, std::int64_t e, int worker) {
        // `&`, not `&&`: the ReLU mask is close to random, so a branch
        // on it mispredicts about half the time.
        std::int64_t live = 0;
        if (mask != nullptr) {
            for (std::int64_t i = b; i < e; ++i)
                live += (mask[i] != 0) & (x[i] != 0.0f);
        } else {
            for (std::int64_t i = b; i < e; ++i)
                live += x[i] != 0.0f;
        }
        partials[static_cast<std::size_t>(worker)].live += live;
    });
    std::int64_t live = 0;
    for (const Partial &p : partials)
        live += p.live;
    return live;
}

} // namespace spg
