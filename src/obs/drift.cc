#include "obs/drift.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/logging.hh"
#include "util/table.hh"

namespace spg {
namespace obs {

namespace {

/** Nearest-rank percentile of a sorted vector (q in [0, 1]). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

DriftStats
statsOf(const std::string &key,
        const std::vector<const DriftSample *> &group)
{
    DriftStats stats;
    stats.key = key;
    stats.samples = static_cast<int>(group.size());
    std::vector<double> abs_errors;
    abs_errors.reserve(group.size());
    double signed_sum = 0;
    for (const DriftSample *s : group) {
        double e = s->relError();
        signed_sum += e;
        abs_errors.push_back(std::fabs(e));
    }
    std::sort(abs_errors.begin(), abs_errors.end());
    stats.p50 = percentile(abs_errors, 0.50);
    stats.p90 = percentile(abs_errors, 0.90);
    stats.max = abs_errors.empty() ? 0 : abs_errors.back();
    stats.mean_signed =
        group.empty() ? 0
                      : signed_sum / static_cast<double>(group.size());

    // Traffic percentiles over the counter-carrying subset only: a
    // sample without counters is "not measured", never "0% error".
    std::vector<double> traffic_abs;
    double traffic_signed = 0;
    for (const DriftSample *s : group) {
        if (!s->hasTraffic())
            continue;
        double e = s->trafficRelError();
        traffic_signed += e;
        traffic_abs.push_back(std::fabs(e));
    }
    std::sort(traffic_abs.begin(), traffic_abs.end());
    stats.traffic_samples = static_cast<int>(traffic_abs.size());
    stats.traffic_p50 = percentile(traffic_abs, 0.50);
    stats.traffic_p90 = percentile(traffic_abs, 0.90);
    stats.traffic_max = traffic_abs.empty() ? 0 : traffic_abs.back();
    stats.traffic_mean_signed =
        traffic_abs.empty()
            ? 0
            : traffic_signed / static_cast<double>(traffic_abs.size());
    return stats;
}

void
appendStatsJson(std::string &out, const DriftStats &stats)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"samples\": %d, \"p50\": %.6g, \"p90\": %.6g, "
                  "\"max\": %.6g, \"mean_signed\": %.6g, "
                  "\"traffic_samples\": %d, \"traffic_p50\": %.6g, "
                  "\"traffic_p90\": %.6g, \"traffic_max\": %.6g, "
                  "\"traffic_mean_signed\": %.6g}",
                  stats.samples, stats.p50, stats.p90, stats.max,
                  stats.mean_signed, stats.traffic_samples,
                  stats.traffic_p50, stats.traffic_p90,
                  stats.traffic_max, stats.traffic_mean_signed);
    out += buf;
}

} // namespace

double
DriftSample::relError() const
{
    if (measured_seconds <= 0)
        return 0;
    return (measured_seconds - modeled_seconds) / measured_seconds;
}

bool
DriftSample::hasTraffic() const
{
    return measured_bytes > 0 && modeled_bytes > 0;
}

double
DriftSample::trafficRelError() const
{
    if (!hasTraffic())
        return 0;
    return (measured_bytes - modeled_bytes) / measured_bytes;
}

void
DriftReport::add(DriftSample sample)
{
    rows.push_back(std::move(sample));
}

void
DriftReport::addEpochEnergy(int epoch, double joules)
{
    energy.push_back(EpochEnergy{epoch, joules});
}

void
DriftReport::addScaling(ScalingRow row)
{
    scaling_.push_back(std::move(row));
}

std::vector<DriftStats>
DriftReport::byRegion() const
{
    std::map<std::string, std::vector<const DriftSample *>> groups;
    for (const DriftSample &s : rows)
        groups[s.region].push_back(&s);
    std::vector<DriftStats> out;
    out.reserve(groups.size());
    for (const auto &[region, group] : groups)
        out.push_back(statsOf(region, group));
    return out;
}

DriftStats
DriftReport::overall() const
{
    std::vector<const DriftSample *> all;
    all.reserve(rows.size());
    for (const DriftSample &s : rows)
        all.push_back(&s);
    return statsOf("all", all);
}

std::string
DriftReport::toJson() const
{
    std::string out = "{\n  \"overall\": ";
    appendStatsJson(out, overall());
    out += ",\n  \"by_region\": {";
    bool first = true;
    for (const DriftStats &stats : byRegion()) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "\"" + stats.key + "\": ";
        appendStatsJson(out, stats);
    }
    out += "\n  },\n  \"samples\": [";
    first = true;
    for (const DriftSample &s : rows) {
        // Worst case: the traffic row's 62 literal characters plus
        // three %.6g fields of up to 13 ("-1.23457e+100") and the NUL.
        char buf[128];
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "{\"label\": \"" + s.label + "\", \"phase\": \"" +
               s.phase + "\", \"engine\": \"" + s.engine +
               "\", \"region\": \"" + s.region + "\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"measured\": %.6g, \"modeled\": %.6g, "
                      "\"rel_error\": %.6g",
                      s.measured_seconds, s.modeled_seconds,
                      s.relError());
        out += buf;
        if (s.hasTraffic()) {
            std::snprintf(buf, sizeof(buf),
                          ", \"measured_bytes\": %.6g, "
                          "\"modeled_bytes\": %.6g, "
                          "\"traffic_rel_error\": %.6g",
                          s.measured_bytes, s.modeled_bytes,
                          s.trafficRelError());
            out += buf;
        }
        out += "}";
    }
    out += "\n  ],\n  \"epoch_energy\": [";
    first = true;
    for (const EpochEnergy &e : energy) {
        char buf[96];
        out += first ? "\n    " : ",\n    ";
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "{\"epoch\": %d, \"joules\": %.6g}", e.epoch,
                      e.joules);
        out += buf;
    }
    out += "\n  ],\n  \"modeled_scaling\": [";
    first = true;
    for (const ScalingRow &s : scaling_) {
        char buf[192];
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "{\"config\": \"" + s.config + "\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"workers\": %d, \"step_ms\": %.6g, "
                      "\"comm_ms\": %.6g, \"overlap_frac\": %.6g, "
                      "\"speedup\": %.6g, \"efficiency\": %.6g}",
                      s.workers, s.step_ms, s.comm_ms, s.overlap_frac,
                      s.speedup, s.efficiency);
        out += buf;
    }
    out += "\n  ]\n}\n";
    return out;
}

void
DriftReport::print(std::FILE *stream) const
{
    // Time columns always; traffic columns only where hardware
    // counters contributed samples ("n/a" otherwise, so a run without
    // perf access is visibly unmeasured rather than suspiciously
    // perfect).
    auto row = [](const DriftStats &stats) {
        std::vector<std::string> cells{
            stats.key,
            TablePrinter::fmt(static_cast<long long>(stats.samples)),
            TablePrinter::fmt(stats.p50 * 100, 1) + "%",
            TablePrinter::fmt(stats.p90 * 100, 1) + "%",
            TablePrinter::fmt(stats.max * 100, 1) + "%",
            TablePrinter::fmt(stats.mean_signed * 100, 1) + "%"};
        if (stats.traffic_samples > 0) {
            cells.push_back(TablePrinter::fmt(
                static_cast<long long>(stats.traffic_samples)));
            cells.push_back(
                TablePrinter::fmt(stats.traffic_p50 * 100, 1) + "%");
            cells.push_back(
                TablePrinter::fmt(stats.traffic_p90 * 100, 1) + "%");
            cells.push_back(
                TablePrinter::fmt(stats.traffic_max * 100, 1) + "%");
        } else {
            cells.insert(cells.end(), {"n/a", "n/a", "n/a", "n/a"});
        }
        return cells;
    };
    if (!rows.empty()) {
        TablePrinter table("Model drift (|measured-modeled|/measured)",
                           {"region", "samples", "p50", "p90", "max",
                            "bias", "tr-n", "tr-p50", "tr-p90",
                            "tr-max"});
        for (const DriftStats &stats : byRegion())
            table.addRow(row(stats));
        table.addRow(row(overall()));
        table.print(stream);
    }

    if (!energy.empty()) {
        TablePrinter etable("Epoch energy (RAPL package)",
                            {"epoch", "joules"});
        for (const EpochEnergy &e : energy)
            etable.addRow({TablePrinter::fmt(
                               static_cast<long long>(e.epoch)),
                           TablePrinter::fmt(e.joules, 1)});
        etable.print(stream);
    }

    if (!scaling_.empty()) {
        // Modeled extrapolation printed NEXT TO the measured numbers
        // above — the measured tables are this host; these rows are
        // the schedule simulator's prediction for K workers.
        TablePrinter stable("Modeled cluster scaling (simulated "
                            "interconnect; compute scaled perfectly)",
                            {"config", "K", "step ms", "comm ms",
                             "ovl", "speedup", "eff"});
        for (const ScalingRow &s : scaling_)
            stable.addRow(
                {s.config,
                 TablePrinter::fmt(static_cast<long long>(s.workers)),
                 TablePrinter::fmt(s.step_ms, 3),
                 TablePrinter::fmt(s.comm_ms, 3),
                 TablePrinter::fmt(s.overlap_frac, 2),
                 TablePrinter::fmt(s.speedup, 2) + "x",
                 TablePrinter::fmt(s.efficiency, 2)});
        stable.print(stream);
    }
}

void
DriftReport::writeTo(const std::string &path) const
{
    std::string doc = toJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write drift report to '%s'", path.c_str());
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

} // namespace obs
} // namespace spg
