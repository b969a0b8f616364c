/**
 * @file
 * The three workloads of the benchmark and the helpers they share.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"
#include "reference.h"

namespace perfbench {

/** Fig. 8 sweep point: Monte-Carlo crossbar evaluation (in-process). */
void runMcCombined(const Options& opt, Report& report);

/** Fig. 1 pipeline: basecall, map, polish on the FP32 backend. */
void runPipelineDigital(const Options& opt, Report& report);

/** Open-loop job mix against a forked swordfishd. */
void runDaemonMix(const Options& opt, Report& report);

/** |value - ref.mean| <= ref.tolerance, as a named check. */
void checkAccuracy(const std::string& what, double value,
                   const AccuracyRef& ref, Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
