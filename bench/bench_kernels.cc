/**
 * @file
 * Google-benchmark micro-benchmarks of the computational primitives
 * every figure rests on: the blocked SGEMM, the sparse AXPY, im2col
 * unfolding and the CT-CSR build.
 *
 * These are throughput microbenches (not figure reproductions); they
 * are the numbers to watch when porting the kernels to new hardware.
 */

#include <benchmark/benchmark.h>

#include "blas/gemm.hh"
#include "conv/engines.hh"
#include "conv/unfold.hh"
#include "sparse/csr.hh"
#include "sparse/sparse_mm.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

void
BM_Sgemm(benchmark::State &state)
{
    std::int64_t n = state.range(0);
    Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
    Rng rng(1);
    a.fillUniform(rng);
    b.fillUniform(rng);
    for (auto _ : state) {
        sgemm(Trans::No, Trans::No, n, n, n, a.data(), b.data(), 0.0f,
              c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFlops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2 * n * n * n * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sgemm)->Arg(128)->Arg(256)->Arg(512);

void
BM_SgemmSkinny(benchmark::State &state)
{
    // The unfolded FP MM of a small CNN layer: m = Nf is tiny.
    std::int64_t m = state.range(0), n = 1024, k = 75;
    Tensor a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
    Rng rng(2);
    a.fillUniform(rng);
    b.fillUniform(rng);
    for (auto _ : state) {
        sgemm(Trans::No, Trans::No, m, n, k, a.data(), b.data(), 0.0f,
              c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFlops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2 * m * n * k * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmSkinny)->Arg(8)->Arg(20)->Arg(64);

void
BM_Axpy(benchmark::State &state)
{
    std::int64_t n = state.range(0);
    Tensor x(Shape{n}), y(Shape{n});
    Rng rng(3);
    x.fillUniform(rng);
    for (auto _ : state) {
        axpy(n, 1.01f, x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["GFlops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2 * n * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Axpy)->Arg(64)->Arg(1024)->Arg(65536);

void
BM_Unfold(benchmark::State &state)
{
    ConvSpec spec = ConvSpec::square(64, 64, 16, 5);
    Tensor in(Shape{spec.nc, spec.ny, spec.nx});
    Tensor u(Shape{spec.gemmK(), spec.gemmN()});
    Rng rng(4);
    in.fillUniform(rng);
    for (auto _ : state) {
        unfoldImage(spec, in.data(), u.data());
        benchmark::DoNotOptimize(u.data());
    }
    state.counters["GB"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * u.size() * 4 * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Unfold);

void
BM_CtCsrBuild(benchmark::State &state)
{
    double sparsity = static_cast<double>(state.range(0)) / 100.0;
    std::int64_t rows = 1024, cols = 256;
    Tensor dense(Shape{rows, cols});
    Rng rng(6);
    dense.fillUniform(rng);
    dense.sparsify(rng, sparsity);
    for (auto _ : state) {
        CtCsrMatrix m = CtCsrMatrix::fromDense(dense.data(), rows, cols,
                                               64);
        benchmark::DoNotOptimize(m.nnz());
    }
}
BENCHMARK(BM_CtCsrBuild)->Arg(50)->Arg(85)->Arg(97);

void
BM_SparseBpBackwardData(benchmark::State &state)
{
    double sparsity = static_cast<double>(state.range(0)) / 100.0;
    ConvSpec spec = ConvSpec::square(32, 64, 32, 3);
    ThreadPool pool(1);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{1, spec.nf, spec.outY(), spec.outX()});
    Tensor ei(Shape{1, spec.nc, spec.ny, spec.nx});
    Rng rng(7);
    w.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);
    SparseBpEngine engine;
    for (auto _ : state) {
        engine.backwardData(spec, eo, w, ei, pool);
        benchmark::DoNotOptimize(ei.data());
    }
    state.counters["goodput-GFlops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * (1 - sparsity) *
            spec.flops() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseBpBackwardData)->Arg(50)->Arg(85)->Arg(97);

} // namespace
} // namespace spg

BENCHMARK_MAIN();
