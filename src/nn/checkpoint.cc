#include "nn/checkpoint.hh"

#include <cstring>
#include <fstream>
#include <vector>

#include "nn/pruning.hh"
#include "util/logging.hh"

namespace spg {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'G', 'C'};
/** v1: parameter tensors only. v2 appends a prune-mask section:
 *  u32 mask count, then per mask u32 layer index + u64 byte size +
 *  the keep/drop bytes. v1 checkpoints still load (no masks). */
constexpr std::uint32_t kVersion = 2;

/** Collect all parameter tensors of the network in layer order. */
std::vector<Tensor *>
allParams(Network &net)
{
    std::vector<Tensor *> params;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        for (Tensor *t : net.layer(i).params())
            params.push_back(t);
    }
    return params;
}

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!in)
        fatal("checkpoint: truncated stream");
    return value;
}

} // namespace

void
saveCheckpoint(Network &net, std::ostream &out)
{
    auto params = allParams(net);
    out.write(kMagic, sizeof(kMagic));
    writePod(out, kVersion);
    writePod(out, static_cast<std::uint32_t>(params.size()));
    for (Tensor *t : params) {
        writePod(out, static_cast<std::uint32_t>(t->shape().rank()));
        for (int d = 0; d < t->shape().rank(); ++d)
            writePod(out, static_cast<std::int64_t>(t->shape()[d]));
        out.write(reinterpret_cast<const char *>(t->data()),
                  t->size() * sizeof(float));
    }

    // v2 prune-mask section: non-empty masks only, keyed by layer
    // index so mask-less layers cost nothing.
    std::uint32_t mask_count = 0;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        auto *mask = net.layer(i).pruneMask();
        mask_count += mask && !mask->empty();
    }
    writePod(out, mask_count);
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        auto *mask = net.layer(i).pruneMask();
        if (!mask || mask->empty())
            continue;
        writePod(out, static_cast<std::uint32_t>(i));
        writePod(out, static_cast<std::uint64_t>(mask->size()));
        out.write(reinterpret_cast<const char *>(mask->data()),
                  static_cast<std::streamsize>(mask->size()));
    }
    if (!out)
        fatal("checkpoint: write failed");
}

void
saveCheckpoint(Network &net, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    saveCheckpoint(net, out);
}

void
loadCheckpoint(Network &net, std::istream &in)
{
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("checkpoint: bad magic (not an spg-CNN checkpoint)");
    auto version = readPod<std::uint32_t>(in);
    if (version != 1 && version != kVersion)
        fatal("checkpoint: unsupported version %u", version);

    auto params = allParams(net);
    auto count = readPod<std::uint32_t>(in);
    if (count != params.size())
        fatal("checkpoint: has %u tensors, network expects %zu", count,
              params.size());

    for (Tensor *t : params) {
        auto rank = readPod<std::uint32_t>(in);
        if (static_cast<int>(rank) != t->shape().rank())
            fatal("checkpoint: tensor rank %u, network expects %d", rank,
                  t->shape().rank());
        for (int d = 0; d < t->shape().rank(); ++d) {
            auto extent = readPod<std::int64_t>(in);
            if (extent != t->shape()[d])
                fatal("checkpoint: dimension %d is %lld, network "
                      "expects %lld",
                      d, static_cast<long long>(extent),
                      static_cast<long long>(t->shape()[d]));
        }
        in.read(reinterpret_cast<char *>(t->data()),
                t->size() * sizeof(float));
        if (!in)
            fatal("checkpoint: truncated tensor data");
    }

    // Prune masks: cleared first so a v1 (or unpruned v2) checkpoint
    // restores a dense, mask-free network.
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        if (auto *mask = net.layer(i).pruneMask())
            mask->clear();
    }
    if (version >= 2) {
        auto mask_count = readPod<std::uint32_t>(in);
        for (std::uint32_t m = 0; m < mask_count; ++m) {
            auto index = readPod<std::uint32_t>(in);
            auto bytes = readPod<std::uint64_t>(in);
            if (index >= net.layerCount())
                fatal("checkpoint: prune mask for layer %u, network "
                      "has %zu layers",
                      index, net.layerCount());
            auto *mask = net.layer(index).pruneMask();
            if (!mask)
                fatal("checkpoint: prune mask for non-prunable "
                      "layer %u",
                      index);
            mask->resize(static_cast<std::size_t>(bytes));
            in.read(reinterpret_cast<char *>(mask->data()),
                    static_cast<std::streamsize>(bytes));
            if (!in)
                fatal("checkpoint: truncated prune mask");
        }
    }

    // A forward-only network never runs update(), so nothing would
    // re-apply a restored prune mask after the fact — bake it into the
    // weights once (the saved weights are already zero where masked,
    // but a checkpoint written mid-step could disagree) and drop it.
    // The network then serves plain dense-with-zeros weights, and the
    // CSR-weights engines still see the real sparsity.
    if (net.forwardOnly()) {
        for (std::size_t i = 0; i < net.layerCount(); ++i) {
            Layer &layer = net.layer(i);
            auto *mask = layer.pruneMask();
            if (!mask || mask->empty())
                continue;
            auto params = layer.params();
            SPG_ASSERT(!params.empty());
            applyPruneMask(*params.front(), *mask);
            mask->clear();
        }
    }

    // Restored weights invalidate any derived caches (weight plans).
    for (std::size_t i = 0; i < net.layerCount(); ++i)
        net.layer(i).paramsUpdated();
}

void
loadCheckpoint(Network &net, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open checkpoint '%s'", path.c_str());
    loadCheckpoint(net, in);
}

} // namespace spg
