/**
 * @file
 * Dense row-major float tensors of rank 1..4.
 *
 * Tensors are the common currency between the convolution engines, the
 * neural-network layers and the benchmark workload generators. Layout
 * is always row-major over the shape as declared; the convolution
 * engines document the dimension *meaning* (e.g. [c][y][x] vs
 * [y][x][c]) at each call site, and the transforms in
 * tensor/layout.hh convert between those meanings.
 */

#ifndef SPG_TENSOR_TENSOR_HH
#define SPG_TENSOR_TENSOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/aligned.hh"
#include "util/random.hh"

namespace spg {

class ThreadPool;

/**
 * Shape of a tensor: up to four extents, unused extents are 1. The
 * default Shape has rank 0 and no elements (an empty Tensor).
 */
class Shape
{
  public:
    Shape() : dims{1, 1, 1, 1}, rank_(0) {}

    /** Construct from 1..4 extents. */
    Shape(std::initializer_list<std::int64_t> extents);

    /** @return number of declared dimensions (1..4; 0 when empty). */
    int rank() const { return rank_; }

    /** @return extent of dimension i (0-based). */
    std::int64_t operator[](int i) const { return dims[i]; }

    /** @return product of all extents; 0 for the empty rank-0 Shape. */
    std::int64_t elements() const;

    bool operator==(const Shape &other) const;
    bool operator!=(const Shape &other) const { return !(*this == other); }

    /** @return "AxBxC" style rendering ("empty" at rank 0). */
    std::string str() const;

  private:
    std::array<std::int64_t, 4> dims;
    int rank_;
};

/**
 * An owning, aligned, row-major dense float tensor.
 *
 * Move-only (copies must be explicit via clone() so that accidental
 * deep copies never hide in hot paths).
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /**
     * Allocate WITHOUT zero-fill — for tensors fully overwritten
     * before their first read (staging, scratch). Sanitized builds
     * poison the contents instead (see util/aligned.hh).
     */
    static Tensor uninitialized(Shape shape);

    /**
     * A non-owning view of external storage (e.g. an arena slot). The
     * caller guarantees @p data outlives the view and holds at least
     * shape.elements() floats.
     */
    static Tensor view(Shape shape, float *data);

    Tensor(Tensor &&) = default;
    Tensor &operator=(Tensor &&) = default;
    Tensor(const Tensor &) = delete;
    Tensor &operator=(const Tensor &) = delete;

    /** @return an explicit deep copy (always owning). */
    Tensor clone() const;

    const Shape &shape() const { return shape_; }
    std::int64_t size() const { return shape_.elements(); }

    float *data() { return view_ ? view_ : buffer.data(); }
    const float *data() const { return view_ ? view_ : buffer.data(); }

    /** Flat element access. */
    float &operator[](std::int64_t i) { return data()[i]; }
    float operator[](std::int64_t i) const { return data()[i]; }

    /** 2-D indexed access; requires rank >= 2 semantics. */
    float &at(std::int64_t i, std::int64_t j);
    float at(std::int64_t i, std::int64_t j) const;

    /** 3-D indexed access. */
    float &at(std::int64_t i, std::int64_t j, std::int64_t k);
    float at(std::int64_t i, std::int64_t j, std::int64_t k) const;

    /** 4-D indexed access. */
    float &at(std::int64_t i, std::int64_t j, std::int64_t k,
              std::int64_t l);
    float at(std::int64_t i, std::int64_t j, std::int64_t k,
             std::int64_t l) const;

    /** Set every element to zero. */
    void zero();

    /** Set every element to the given constant. */
    void fill(float value);

    /** Fill with uniform values in [lo, hi) from the given generator. */
    void fillUniform(Rng &rng, float lo = -1.0f, float hi = 1.0f);

    /** Fill with N(0, stddev^2) samples. */
    void fillGaussian(Rng &rng, float stddev = 1.0f);

    /**
     * Randomly zero elements until approximately the requested fraction
     * is zero. Used to synthesize error-gradient sparsity levels.
     *
     * @param rng Seeded generator.
     * @param sparsity Target fraction of zeros in [0, 1].
     */
    void sparsify(Rng &rng, double sparsity);

    /** @return fraction of elements that are exactly zero. */
    double sparsity() const;

    /** @return number of elements that are exactly zero. */
    std::int64_t zeroCount() const;

    /** @return largest absolute element. */
    float maxAbs() const;

  private:
    Shape shape_;
    AlignedBuffer<float> buffer;
    float *view_ = nullptr;  ///< when set, storage is external
};

/**
 * @return the largest absolute elementwise difference between two
 * tensors of identical shape, or NaN when any difference is NaN;
 * panics on shape mismatch.
 */
float maxAbsDiff(const Tensor &a, const Tensor &b);

/**
 * @return true when every element of @p a is within @p abs_tol plus
 * @p rel_tol * |b| of the corresponding element of @p b; a NaN on
 * either side is never close.
 */
bool allClose(const Tensor &a, const Tensor &b, float rel_tol = 1e-4f,
              float abs_tol = 1e-5f);

/**
 * Count the live elements of x[0, n) in one branchless pass over the
 * pool's fixed parallelFor partition. An element is live when it is
 * `!= 0.0f` (so -0.0f is dead and NaN is live) and, when @p mask is
 * non-null, its mask byte is set; @p mask then holds n bytes. The
 * count is an exact integer, so it does not depend on the pool size
 * or on which participant ran which chunk.
 */
std::int64_t liveCount(const float *x, const std::uint8_t *mask,
                       std::int64_t n, ThreadPool &pool);

} // namespace spg

#endif // SPG_TENSOR_TENSOR_HH
