/**
 * @file
 * The benchmark's workloads and the outside-in span log the traced
 * runs attribute time with.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "conv/conv_spec.hh"
#include "nn/network.hh"
#include "report.hh"

namespace e2e {

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int threads = 4;
};

/** Timed tuner repetitions, set explicitly on every tuner the program
 *  runs (TunerOptions::reps and ServerOptions::tuner_reps). */
constexpr int kTunerReps = 3;

bool isTrainWorkload(const std::string &name);
bool isServeWorkload(const std::string &name);

void runTrain(const RunArgs &args, Report &report);
void runServe(const RunArgs &args, Report &report);

inline std::int64_t
clockNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory spans the traced runs place around public calls: a name,
 * start, end and the span open when it began. Kept until the run ends,
 * then aggregated by name into the per-layer metrics.
 */
class SpanLog
{
  public:
    struct Span
    {
        int name = 0;
        int parent = -1;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    /** Open a span now; @return its index for end(). */
    int begin(const std::string &name);
    void end(int span);
    /** Record an already-measured interval under the open span. */
    void add(const std::string &name, std::int64_t start_ns,
             std::int64_t end_ns);

    /** Summed duration in ms of every span called @p name. */
    double totalMs(const std::string &name) const;
    std::int64_t count(const std::string &name) const;
    std::size_t size() const { return spans.size(); }

    /** Print name / count / total / mean, one line per name. */
    void print(Report &report) const;

  private:
    int intern(const std::string &name);

    std::map<std::string, int> ids;
    std::vector<std::string> names;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** conv0, pool0, conv1, pool1, fc0, softmax, ...: each layer named by
 *  its type and its order among layers of that type. */
std::vector<std::string> layerNames(spg::Network &net);

/** Single-thread sgemm rate at a conv's unfolded per-image FP shape
 *  (nf x outY*outX x nc*fy*fx), median of 31 spans named @p span. */
double sgemmGflops(const spg::ConvSpec &spec, SpanLog &spans,
                   const std::string &span);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
