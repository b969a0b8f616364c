/**
 * @file
 * The code shared by the two in-process workloads (mc_combined and
 * pipeline_digital): repeated set-up, the timed window of units cycling
 * over D1–D4, the traced window and its per-layer accounting.
 */

#ifndef PERFBENCH_INPROCESS_H
#define PERFBENCH_INPROCESS_H

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "reference.h"
#include "tracing.h"

namespace perfbench {

/** What one unit of work (one call on one dataset) produced. */
struct UnitOutcome
{
    std::size_t reads = 0;       ///< reads basecalled
    std::size_t degraded = 0;    ///< reads skipped or failed
    double accuracy = 0.0;       ///< mean identity / map identity
    std::vector<double> outputs; ///< every output, compared bitwise
};

struct InProcessWorkload
{
    std::string name;
    std::size_t readsPerDataset = 0;
    /** Untraced unit on dataset `d` with the trained teacher. */
    std::function<UnitOutcome(nn::SequenceModel& teacher,
                              const genomics::Dataset& ds, std::size_t d)>
        run;
    /** The same unit, observed through `clock`; must match run() bitwise. */
    std::function<UnitOutcome(nn::SequenceModel& teacher,
                              const genomics::Dataset& ds, std::size_t d,
                              LayerClock& clock)>
        traced;
    /** Workload-specific checks of the first outcome per dataset. */
    std::function<void(const std::vector<UnitOutcome>& first,
                       Report& report)>
        checkAccuracy;
    /**
     * Optional check run once after the window, untimed, with the measured
     * teacher, the datasets and the first outcome on D1.
     */
    std::function<void(nn::SequenceModel& teacher,
                       const std::vector<genomics::Dataset>& datasets,
                       const UnitOutcome& first, Report& report)>
        checkVmm;
    /** Recorded crossbar counts of one unit; all zero for FP32 gemm. */
    UnitCounts unitCounts{};
};

/** Same unit outputs, bit for bit. */
bool sameOutcome(const UnitOutcome& a, const UnitOutcome& b);

/** Both outcomes' outputs, for a failed sameOutcome() check. */
std::string describe(const UnitOutcome& a, const UnitOutcome& b);

/** Run an in-process workload end to end and fill the report. */
void runInProcess(const Options& opt, const InProcessWorkload& wl,
                  Report& report);

} // namespace perfbench

#endif // PERFBENCH_INPROCESS_H
