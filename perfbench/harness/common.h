/**
 * @file
 * Shared pieces of the perfbench harness: options, the result report,
 * seeded input generation, teacher training, statistics and registry
 * deltas. The harness only calls the repository's public functions; it
 * adds nothing inside the program.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "genomics/dataset.h"
#include "nn/model.h"
#include "util/metrics.h"

namespace perfbench {

using namespace swordfish;
using Clock = std::chrono::steady_clock;

/** Seconds from `t0` to now. */
double secondsSince(Clock::time_point t0);

/**
 * Command-line options. The widths and latency limits are fixed in
 * BENCHMARK.json's command and required here.
 */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;             ///< tiny sizes, checks only
    bool setupOnly = false;         ///< one cold set-up, then exit
    std::size_t poolThreads = 0;    ///< evaluator pool width
    std::size_t daemonWorkers = 0;  ///< swordfishd --workers
    std::size_t daemonThreads = 0;  ///< swordfishd pool width
    double sloSeconds = 0.0;        ///< this workload's latency limit
    std::string swordfishd;         ///< daemon binary
    std::string workDir;            ///< work directory of this run
    std::vector<std::string> args;  ///< the arguments as given
};

/**
 * The run's result: end-to-end or per-layer metrics, operation counts,
 * failed correctness checks and informational fields (sample counts,
 * environment), printed as the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);

    /** Record a correctness check; a false `ok` fails the run. */
    void check(bool ok, const std::string& what);

    /** An informational field printed on the `# info` line. */
    void info(const std::string& key, const std::string& json_value);
    void info(const std::string& key, double value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return failures_.empty(); }

    /** `# info {...}` line (sample counts, environment). */
    std::string infoLine() const;
    /** The final result object. */
    std::string resultLine() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<std::string> failures_;
};

/** Sizes of one workload run; smoke mode shrinks every one of them. */
struct Sizes
{
    std::size_t trainReads;    ///< teacher training corpus reads
    std::size_t trainEpochs;   ///< teacher training epochs
    std::size_t mcRuns;        ///< Monte-Carlo runs per sweep point
    std::size_t mcReads;       ///< reads per dataset, mc_combined
    std::size_t pipelineReads; ///< reads per dataset, pipeline_digital
    std::size_t batch;         ///< crossbar batch capacity
    std::size_t jobReads;      ///< reads per daemon_mix Combined job
    double jobRate;            ///< daemon_mix jobs per second
    std::size_t setupReps;     ///< set-ups per run (median reported)
};

Sizes sizesFor(bool smoke);

/** The Table 2 datasets the in-process workloads cycle through. */
const std::vector<std::string>& datasetIds();

/**
 * Dataset `id` re-seeded from the workload seed, with `reads` reads whose
 * signal lengths follow a fixed schedule (so the crossbar work per read is
 * the same for every seed and dataset; only the content varies). Each
 * read is the next simulated read long enough for its slot, truncated to
 * the slot length with its bases trimmed to the samples kept.
 */
genomics::Dataset makeInputDataset(const std::string& id,
                                   std::uint64_t seed, std::size_t reads);

/**
 * Train the FP32 teacher with the fixed configuration from a cold artifact
 * directory (created empty) and save it there. Returns the model; the
 * saved file is `dir`/teacher.bin.
 */
nn::SequenceModel trainTeacher(const Sizes& sizes, const std::string& dir);

/** Whole-file byte comparison. */
bool sameFileBytes(const std::string& a, const std::string& b);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * Quantile q in [0, 1] by linear interpolation between closest ranks
 * (0 for an empty sample).
 */
double quantile(std::vector<double> v, double q);

/** Heap memory this process holds in use (allocated chunks), MiB. */
double heapInUseMb();

/** Resident set of process `pid` now (0 when gone), MiB. */
double residentMb(pid_t pid);

/**
 * Calls `sample` every 10 ms on its own thread while alive. A high
 * percentile of the samples is the memory metric: the maximum swings with
 * whether two threads' or jobs' transient working memory peaked at once.
 */
class MemorySampler
{
  public:
    explicit MemorySampler(std::function<double()> sample);
    ~MemorySampler(); ///< stops and joins the sampling thread

    MemorySampler(const MemorySampler&) = delete;
    MemorySampler& operator=(const MemorySampler&) = delete;

    /** Stop sampling; returns the 95th percentile of the samples. */
    double stop();

  private:
    std::function<double()> sample_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::vector<double> samples_;
    std::thread thread_; ///< last: it uses every member above
};

/** Bitwise equality of two doubles. */
bool sameBits(double a, double b);

/** Differences of registry counters and spans between two snapshots. */
struct RegistryDelta
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> spanSeconds;

    static RegistryDelta between(const MetricsSnapshot& before,
                                 const MetricsSnapshot& after);
    /** Sum another delta into this one. */
    void add(const RegistryDelta& other);

    std::uint64_t counter(const std::string& name) const;
    double span(const std::string& name) const;
};

/** One set-up's timings. */
struct SetupTimes
{
    double setupSeconds = 0.0;   ///< the whole set-up
    double datasetSeconds = 0.0; ///< input dataset synthesis
    double trainSeconds = 0.0;   ///< teacher training from cold
};

/** Print the `# setup {...}` line a --setup-only run ends with. */
void printSetupLine(const SetupTimes& t);

/**
 * Run the Sizes::setupReps set-ups, each cold in a fresh process of this
 * harness (--setup-only, work dir `opt.workDir`/setupK), one after the
 * other, and return their timings.
 */
std::vector<SetupTimes> runSetupChildren(const Options& opt);

/** One field of every set-up. */
std::vector<double> pick(const std::vector<SetupTimes>& setups,
                         double SetupTimes::*field);

/** %.17g (enough digits to round-trip a double), or null if not finite. */
std::string jsonNumber(double v);

/**
 * Modelled outputs of the `arch` module for the teacher geometry at batch
 * 8: Fig. 14 throughput and energy per variant (averaged over D1–D4
 * profiles taken from the dataset specs, so they do not depend on the
 * seed) and the accelerator area. Names are the per-layer metric names.
 */
std::vector<std::pair<std::string, double>> archOutputs();

/** Compare archOutputs() to the recorded values, exactly. */
void checkArchOutputs(const std::vector<std::pair<std::string, double>>& out,
                      Report& report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
