#include "data/suites.hh"

#include "util/logging.hh"

namespace spg {

const std::vector<Table1Entry> &
table1Convolutions()
{
    // Paper Table 1: <Nx(=Ny), Nf, Nc, Fx(=Fy)>, unit stride.
    static const std::vector<Table1Entry> entries = {
        {0, ConvSpec::square(32, 32, 32, 4), 362, 25, "4,5"},
        {1, ConvSpec::square(64, 1024, 512, 2), 2015, 725, "0,1"},
        {2, ConvSpec::square(256, 256, 128, 3), 1510, 226, "2,3"},
        {3, ConvSpec::square(128, 128, 64, 7), 3561, 113, "2,3"},
        {4, ConvSpec::square(128, 512, 256, 5), 6567, 456, "2,3"},
        {5, ConvSpec::square(64, 64, 16, 11), 1921, 44, "4,5"},
    };
    return entries;
}

const std::vector<Table2Entry> &
table2Layers()
{
    // Paper Table 2: Nx(=Ny), Nf, Nc, Fx(=Fy), sx(=sy).
    static const std::vector<Table2Entry> entries = {
        {"ImageNet-22K", 0, ConvSpec::square(262, 120, 3, 7, 2)},
        {"ImageNet-22K", 1, ConvSpec::square(64, 250, 120, 5, 2)},
        {"ImageNet-22K", 2, ConvSpec::square(15, 400, 250, 3, 1)},
        {"ImageNet-22K", 3, ConvSpec::square(13, 400, 400, 3, 1)},
        {"ImageNet-22K", 4, ConvSpec::square(11, 600, 400, 3, 1)},
        {"ImageNet-1K", 0, ConvSpec::square(224, 96, 3, 11, 4)},
        {"ImageNet-1K", 1, ConvSpec::square(55, 256, 96, 5, 1)},
        {"ImageNet-1K", 2, ConvSpec::square(27, 384, 256, 3, 1)},
        {"ImageNet-1K", 3, ConvSpec::square(13, 256, 192, 3, 1)},
        {"CIFAR-10", 0, ConvSpec::square(36, 64, 3, 5, 1)},
        {"CIFAR-10", 1, ConvSpec::square(8, 64, 64, 5, 1)},
        {"MNIST", 0, ConvSpec::square(28, 20, 1, 5, 1)},
    };
    return entries;
}

std::vector<Table2Entry>
table2Layers(const std::string &benchmark)
{
    std::vector<Table2Entry> out;
    for (const auto &entry : table2Layers()) {
        if (entry.benchmark == benchmark)
            out.push_back(entry);
    }
    if (out.empty())
        fatal("unknown Table 2 benchmark '%s'", benchmark.c_str());
    return out;
}

std::string
cifar10NetConfigText()
{
    // Conv layer geometry matches Table 2 exactly: L0 sees 3x36x36
    // (padded CIFAR), L1 sees 64x8x8 after 4x4 pooling of the 32x32
    // conv output. The 4x4 L1 output is pooled to 2x2 before the
    // classifier.
    return R"(name: "cifar10"
input { channels: 3 height: 36 width: 36 classes: 10 }
layer { type: conv name: "conv0" features: 64 kernel: 5 }
layer { type: relu }
layer { type: maxpool kernel: 4 stride: 4 }
layer { type: conv name: "conv1" features: 64 kernel: 5 }
layer { type: relu }
layer { type: maxpool kernel: 2 stride: 2 }
layer { type: fc outputs: 10 }
layer { type: softmax }
)";
}

std::string
mnistNetConfigText()
{
    // LeCun-style: Table 2 conv (28 -> 24, 20 features), pool, dense.
    return R"(name: "mnist"
input { channels: 1 height: 28 width: 28 classes: 10 }
layer { type: conv name: "conv0" features: 20 kernel: 5 }
layer { type: relu }
layer { type: maxpool kernel: 2 stride: 2 }
layer { type: fc outputs: 10 }
layer { type: softmax }
)";
}

std::string
imagenet100NetConfigText()
{
    // Downscaled AlexNet-flavoured stack on 64x64 inputs for the
    // Fig. 3b sparsity-over-epochs study.
    return R"(name: "imagenet100"
input { channels: 3 height: 64 width: 64 classes: 100 }
layer { type: conv name: "conv0" features: 32 kernel: 5 stride: 2 }
layer { type: relu }
layer { type: maxpool kernel: 2 stride: 2 }
layer { type: conv name: "conv1" features: 64 kernel: 3 }
layer { type: relu }
layer { type: maxpool kernel: 2 stride: 2 }
layer { type: conv name: "conv2" features: 96 kernel: 3 }
layer { type: relu }
layer { type: fc outputs: 100 }
layer { type: softmax }
)";
}

} // namespace spg
