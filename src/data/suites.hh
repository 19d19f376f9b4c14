/**
 * @file
 * The paper's benchmark suites: the Table 1 characterization
 * convolutions, the Table 2 real-world CNN layer specifications, and
 * the network descriptions used by the end-to-end experiments.
 */

#ifndef SPG_DATA_SUITES_HH
#define SPG_DATA_SUITES_HH

#include <string>
#include <vector>

#include "conv/conv_spec.hh"

namespace spg {

/** One Table 1 row. */
struct Table1Entry
{
    int id;
    ConvSpec spec;
    double paper_intrinsic_ait;  ///< as printed in the paper
    double paper_unfold_ait;     ///< as printed in the paper
    const char *paper_region;    ///< "4,5" etc.
};

/** @return the six Table 1 characterization convolutions. */
const std::vector<Table1Entry> &table1Convolutions();

/** One Table 2 layer. */
struct Table2Entry
{
    std::string benchmark;  ///< "ImageNet-22K", "CIFAR-10", ...
    int layer;              ///< L0, L1, ...
    ConvSpec spec;
};

/** @return all Table 2 convolution layers of the four benchmarks. */
const std::vector<Table2Entry> &table2Layers();

/** @return the Table 2 layers of one benchmark, in layer order. */
std::vector<Table2Entry> table2Layers(const std::string &benchmark);

/**
 * @return the CIFAR-10 network description used by the end-to-end
 * Fig. 9 experiment: conv layers exactly as Table 2 (36->32 conv 5x5
 * x64, pool to 8, 8->4 conv 5x5 x64, pool to 2, fc, softmax).
 */
std::string cifar10NetConfigText();

/** @return the MNIST (LeCun) network description. */
std::string mnistNetConfigText();

/** @return a small ImageNet-100-like description for the Fig. 3b
 *  sparsity study (downscaled 64x64 input). */
std::string imagenet100NetConfigText();

} // namespace spg

#endif // SPG_DATA_SUITES_HH
