#include <algorithm>
#include <vector>

#include "blas/gemm.hh"
#include "nn/network.hh"
#include "workloads.hh"

namespace e2e {

int
SpanLog::intern(const std::string &name)
{
    auto it = ids.find(name);
    if (it != ids.end())
        return it->second;
    int id = static_cast<int>(names.size());
    names.push_back(name);
    ids.emplace(name, id);
    return id;
}

int
SpanLog::begin(const std::string &name)
{
    Span s;
    s.name = intern(name);
    s.parent = open.empty() ? -1 : open.back();
    s.start_ns = clockNs();
    spans.push_back(s);
    open.push_back(static_cast<int>(spans.size() - 1));
    return open.back();
}

void
SpanLog::end(int span)
{
    spans[static_cast<std::size_t>(span)].end_ns = clockNs();
    if (!open.empty() && open.back() == span)
        open.pop_back();
}

void
SpanLog::add(const std::string &name, std::int64_t start_ns,
             std::int64_t end_ns)
{
    Span s;
    s.name = intern(name);
    s.parent = open.empty() ? -1 : open.back();
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans.push_back(s);
}

double
SpanLog::totalMs(const std::string &name) const
{
    auto it = ids.find(name);
    if (it == ids.end())
        return 0;
    double ns = 0;
    for (const Span &s : spans)
        if (s.name == it->second)
            ns += static_cast<double>(s.end_ns - s.start_ns);
    return ns * 1e-6;
}

std::int64_t
SpanLog::count(const std::string &name) const
{
    auto it = ids.find(name);
    if (it == ids.end())
        return 0;
    return std::count_if(spans.begin(), spans.end(), [&](const Span &s) {
        return s.name == it->second;
    });
}

void
SpanLog::print(Report &report) const
{
    report.line("spans: %-28s %8s %12s %10s", "name", "count", "total ms",
                "mean ms");
    for (const auto &[name, id] : ids) {
        (void)id;
        std::int64_t n = count(name);
        double total = totalMs(name);
        report.line("spans: %-28s %8lld %12.3f %10.4f", name.c_str(),
                    static_cast<long long>(n), total,
                    n ? total / static_cast<double>(n) : 0.0);
    }
}

std::vector<std::string>
layerNames(spg::Network &net)
{
    using namespace spg;
    std::map<std::string, int> seen;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        Layer &l = net.layer(i);
        std::string kind = dynamic_cast<ConvLayer *>(&l)      ? "conv"
                           : dynamic_cast<PoolLayer *>(&l)    ? "pool"
                           : dynamic_cast<FcLayer *>(&l)      ? "fc"
                           : dynamic_cast<ReluLayer *>(&l)    ? "relu"
                           : dynamic_cast<SoftmaxLayer *>(&l) ? "softmax"
                                                              : "layer";
        int k = seen[kind]++;
        names.push_back(kind == "softmax" ? kind : kind + std::to_string(k));
    }
    return names;
}

double
sgemmGflops(const spg::ConvSpec &spec, SpanLog &spans,
            const std::string &span)
{
    std::int64_t m = spec.nf, n = spec.outY() * spec.outX(),
                 k = spec.nc * spec.fy * spec.fx;
    std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n, 0.0f);
    std::vector<double> ms;
    for (int r = 0; r < 31; ++r) {
        int sp = spans.begin(span);
        std::int64_t t0 = clockNs();
        spg::sgemm(spg::Trans::No, spg::Trans::No, m, n, k, 1.0f, a.data(),
                   k, b.data(), n, 0.0f, c.data(), n);
        ms.push_back(static_cast<double>(clockNs() - t0) * 1e-6);
        spans.end(sp);
    }
    return 2.0 * static_cast<double>(m * n * k) / median(ms) * 1e-6;
}

} // namespace e2e
