/**
 * @file
 * perfbench_harness: runs one workload of the benchmark and prints its
 * result as the last line of standard output (see perfbench/README.md).
 *
 *   perfbench_harness --workload mc_combined --seed 1 --seconds 10 \
 *       --trace 0 --work-dir DIR --swordfishd PATH [--smoke] \
 *       --pool-threads N --daemon-workers N --daemon-threads N \
 *       --slo-s name=S,...
 *
 * Exit status 0 with a result line (whose "correct" reports the checks);
 * non-zero without one when the run could not complete.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "tensor/simd.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Latency limit of `workload` from "name=seconds,..." */
double
sloFor(const std::string& list, const std::string& workload)
{
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t end = std::min(list.find(',', pos), list.size());
        const std::string item = list.substr(pos, end - pos);
        const std::size_t eq = item.find('=');
        if (eq != std::string::npos && item.substr(0, eq) == workload)
            return std::stod(item.substr(eq + 1));
        pos = end + 1;
    }
    throw std::runtime_error("--slo-s has no limit for " + workload);
}

Options
parse(int argc, char** argv)
{
    Options opt;
    std::string slo;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        opt.args.push_back(arg);
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (arg == "--setup-only") {
            opt.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error(arg + " needs a value");
        const std::string value = argv[++i];
        opt.args.push_back(value);
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::stoull(value);
        else if (arg == "--seconds")
            opt.seconds = std::stod(value);
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--pool-threads")
            opt.poolThreads = std::stoul(value);
        else if (arg == "--daemon-workers")
            opt.daemonWorkers = std::stoul(value);
        else if (arg == "--daemon-threads")
            opt.daemonThreads = std::stoul(value);
        else if (arg == "--slo-s")
            slo = value;
        else if (arg == "--swordfishd")
            opt.swordfishd = value;
        else if (arg == "--work-dir")
            opt.workDir = value;
        else
            throw std::runtime_error("unknown option " + arg);
    }
    if (opt.workDir.empty() || opt.swordfishd.empty() || slo.empty())
        throw std::runtime_error(
            "--work-dir, --swordfishd and --slo-s are required");
    if (opt.poolThreads == 0 || opt.daemonWorkers == 0
        || opt.daemonThreads == 0 || opt.seconds <= 0.0)
        throw std::runtime_error("--pool-threads, --daemon-workers, "
                                 "--daemon-threads and --seconds must be "
                                 "given and > 0");
    opt.sloSeconds = sloFor(slo, opt.workload);
    return opt;
}

/** Numbers from a debug or instrumented build are not worth reporting. */
void
refuseNonRelease()
{
    bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release"
        && std::string(PERFBENCH_SANITIZE).empty();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) \
    || defined(__SANITIZE_THREAD__)
    release = false;
#endif
    if (!release)
        throw std::runtime_error(
            std::string("refusing to measure a non-Release build (build "
                        "type '")
            + PERFBENCH_BUILD_TYPE + "', sanitizer '" + PERFBENCH_SANITIZE
            + "')");
}

void
stampEnvironment(const Options& opt, Report& report)
{
    report.info("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
    report.info("simd", std::string("\"")
                    + simdLevelName(activeSimdLevel()) + "\"");
    report.info("compiler", "\"" + std::string(PERFBENCH_COMPILER) + "\"");
    report.info("build_type", "\"" + std::string(PERFBENCH_BUILD_TYPE) + "\"");
    report.info("pool_threads", static_cast<double>(opt.poolThreads));
    report.info("daemon_workers", static_cast<double>(opt.daemonWorkers));
    report.info("daemon_threads", static_cast<double>(opt.daemonThreads));
    report.info("job_rate", sizesFor(opt.smoke).jobRate);
    report.info("slo_s", opt.sloSeconds);
    report.info("seed", static_cast<double>(opt.seed));
    report.info("seconds", opt.seconds);
    report.info("trace", opt.trace ? 1.0 : 0.0);
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        refuseNonRelease();
        const Options opt = parse(argc, argv);
        Report report;
        if (opt.workload == "mc_combined")
            runMcCombined(opt, report);
        else if (opt.workload == "pipeline_digital")
            runPipelineDigital(opt, report);
        else if (opt.workload == "daemon_mix")
            runDaemonMix(opt, report);
        else
            throw std::runtime_error("unknown workload '" + opt.workload
                                     + "'");
        if (opt.setupOnly)
            return 0;
        stampEnvironment(opt, report);
        std::printf("%s\n%s\n", report.infoLine().c_str(),
                    report.resultLine().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
