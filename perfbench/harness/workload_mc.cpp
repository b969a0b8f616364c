/**
 * @file
 * mc_combined: the Fig. 8 sweep point. core::evaluateNonIdealAccuracy on
 * the trained teacher under the analytical Combined scenario, 64x64
 * crossbars, batch 8, several Monte-Carlo runs, one dataset per unit.
 * Nearly all host time is the crossbar VMM path and its ADC/DAC
 * converters, so converter, VMM and batching work shows here.
 */

#include <cmath>
#include <memory>
#include <mutex>

#include "core/evaluator.h"
#include "inprocess.h"
#include "reference.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

core::NonIdealityConfig
combined64()
{
    core::NonIdealityConfig scenario;
    scenario.kind = core::NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    return scenario;
}

core::EvalRequest
mcRequest(const Sizes& sizes, const genomics::Dataset& ds,
          std::uint64_t seed, std::size_t d)
{
    return core::EvalOptions(ds)
        .runs(sizes.mcRuns)
        .maxReads(sizes.mcReads)
        .seedBase(hashSeed({seed, 0x6d63ULL, d}))
        .batch(sizes.batch);
}

UnitOutcome
outcomeOf(const core::AccuracySummary& s, std::size_t reads)
{
    UnitOutcome out;
    out.reads = reads * s.runs;
    out.degraded = s.degraded.skippedReads();
    out.accuracy = s.mean;
    out.outputs = {s.mean, s.stddev, s.min, s.max,
                   static_cast<double>(s.runs),
                   static_cast<double>(s.degraded.okReads),
                   static_cast<double>(s.degraded.retriedReads)};
    return out;
}

/** Monte-Carlo runs of each single-non-ideality VMM error probe. */
constexpr std::size_t kProbeRuns = 8;

/** Wraps one Monte-Carlo run's backend for the run's lifetime. */
using Wrap = std::function<std::unique_ptr<nn::VmmBackend>(
    nn::VmmBackend& inner)>;

/**
 * A copy of evaluateNonIdealAccuracy's Monte-Carlo loop, rebuilt from
 * public pieces so every run's backend can be wrapped (the evaluator
 * builds its backends internally): each run programs a fresh
 * CrossbarVmmBackend (seed base + r), compiles it and basecalls through
 * `wrap(backend)`; runs shard over the pool as the evaluator shards them,
 * and fold in run order. Only the per-weight VMM split and the forward
 * time are taken from it; the traced run checks its VMM time against the
 * program's own `vmm` span.
 */
core::AccuracySummary
wrappedNonIdeal(nn::SequenceModel& model,
                const core::NonIdealityConfig& scenario,
                const core::EvalRequest& req, const Wrap& wrap)
{
    basecall::applyRequestThreads(req);
    core::EvalRequest per_run = req;
    per_run.runs = 1;
    std::vector<double> run_mean(req.runs, 0.0);
    std::vector<core::DegradedResult> run_degraded(req.runs);
    auto run_one = [&](nn::SequenceModel& m, std::size_t r) {
        core::CrossbarVmmBackend backend(scenario, req.seedBase + r);
        if (const core::CompileError err = backend.compile(m))
            throw std::runtime_error("compile: " + err.message);
        const std::unique_ptr<nn::VmmBackend> wrapped = wrap(backend);
        m.setBackend(wrapped.get());
        const basecall::AccuracyResult acc =
            basecall::evaluateAccuracy(m, per_run);
        m.setBackend(nullptr);
        run_mean[r] = acc.meanIdentity;
        run_degraded[r] = acc.degraded;
    };
    ThreadPool& pool = globalPool();
    const std::size_t shards = pool.shardCount(req.runs);
    if (shards <= 1) {
        for (std::size_t r = 0; r < req.runs; ++r)
            run_one(model, r);
    } else {
        std::vector<nn::SequenceModel> replicas =
            basecall::makeWorkerReplicas(model, shards);
        std::vector<std::function<void()>> tasks;
        for (std::size_t s = 0; s < shards; ++s) {
            tasks.push_back([&, s] {
                const auto [begin, end] =
                    ThreadPool::shardRange(req.runs, shards, s);
                for (std::size_t r = begin; r < end; ++r)
                    run_one(replicas[s], r);
            });
        }
        pool.runTasks(std::move(tasks));
    }
    model.setBackend(nullptr);

    RunningStat stat;
    core::AccuracySummary summary;
    for (std::size_t r = 0; r < req.runs; ++r) {
        stat.add(run_mean[r]);
        summary.degraded.merge(run_degraded[r]);
    }
    summary.mean = stat.mean();
    summary.stddev = stat.stddev();
    summary.min = stat.min();
    summary.max = stat.max();
    summary.runs = stat.count();
    return summary;
}

} // namespace

void
runMcCombined(const Options& opt, Report& report)
{
    const Sizes sizes = sizesFor(opt.smoke);
    const core::NonIdealityConfig scenario = combined64();

    InProcessWorkload wl;
    wl.name = "mc_combined";
    wl.readsPerDataset = sizes.mcReads;
    wl.unitCounts = opt.smoke ? kMcSmokeUnitCounts : kMcUnitCounts;
    wl.run = [&](nn::SequenceModel& teacher, const genomics::Dataset& ds,
                 std::size_t d) {
        return outcomeOf(core::evaluateNonIdealAccuracy(
                             teacher, scenario,
                             mcRequest(sizes, ds, opt.seed, d)),
                         sizes.mcReads);
    };
    wl.traced = [&](nn::SequenceModel& teacher, const genomics::Dataset& ds,
                    std::size_t d, LayerClock& clock) {
        const Wrap wrap = [&clock](nn::VmmBackend& inner) {
            return std::make_unique<TracingBackend>(inner, clock);
        };
        return outcomeOf(wrappedNonIdeal(teacher, scenario,
                                         mcRequest(sizes, ds, opt.seed, d),
                                         wrap),
                         sizes.mcReads);
    };
    wl.checkAccuracy = [&](const std::vector<UnitOutcome>& first,
                           Report& r) {
        if (opt.smoke)
            return; // the smoke teacher is barely trained
        double identity = 0.0;
        for (const UnitOutcome& out : first)
            identity += out.accuracy / static_cast<double>(first.size());
        checkAccuracy("mc_combined D1-D4 mean identity", identity,
                      kMcAccuracy, r);
    };
    wl.checkVmm = [&](nn::SequenceModel& teacher,
                      const std::vector<genomics::Dataset>& datasets,
                      const UnitOutcome& first, Report& r) {
        // Untimed probe units on D1 compare every VMM output with the exact
        // product x W^T: the Combined unit of the window (which must also
        // reproduce bitwise), then each non-ideality alone, so skipping or
        // weakening one converter or noise source shows even where the
        // accuracy and the counts hide it. The error is the median over
        // the unit's Monte-Carlo runs: a rare converter instance draw
        // gives one run several times the usual error (DAC+Driver: 0.17
        // against 0.05-0.09), which a pooled error would follow; the
        // single-source probes take 8 runs so that even two such draws
        // leave the median among the usual values.
        std::string errors = "{";
        for (const ErrorRef& ref : kMcVmmError) {
            core::NonIdealityConfig probe = scenario;
            probe.kind = ref.kind;
            const bool window_unit = ref.kind == scenario.kind;
            const core::EvalRequest req = window_unit
                ? mcRequest(sizes, datasets[0], opt.seed, 0)
                : core::EvalOptions(datasets[0])
                      .runs(kProbeRuns)
                      .maxReads(sizes.batch)
                      .seedBase(hashSeed({opt.seed, 0x70726fULL}))
                      .batch(sizes.batch);
            std::mutex runs_mutex;
            std::vector<std::unique_ptr<VmmError>> run_errors;
            const Wrap wrap = [&](nn::VmmBackend& inner) {
                const std::lock_guard<std::mutex> lock(runs_mutex);
                run_errors.push_back(std::make_unique<VmmError>());
                return std::make_unique<ErrorProbe>(inner,
                                                    *run_errors.back());
            };
            const core::AccuracySummary s =
                wrappedNonIdeal(teacher, probe, req, wrap);
            if (window_unit) {
                const UnitOutcome probed = outcomeOf(s, sizes.mcReads);
                r.check(sameOutcome(probed, first),
                        "error-probed unit is not bitwise equal to the "
                        "plain one: " + describe(probed, first));
            }
            std::vector<double> per_run;
            for (const auto& error : run_errors)
                per_run.push_back(error->relativeError());
            const double e = median(per_run);
            errors += std::string(errors.size() > 1 ? ", \"" : "\"")
                + ref.name + "\": " + jsonNumber(e);
            // The references belong to the trained teacher's weights.
            r.check(opt.smoke
                        || std::fabs(e - ref.value)
                            <= ref.tolerance * ref.value,
                    std::string("relative VMM error under ") + ref.name
                        + " " + jsonNumber(e) + " is not within "
                        + jsonNumber(ref.tolerance * 100.0) + " % of "
                        + jsonNumber(ref.value));
        }
        r.info("vmm_relative_error", errors + "}");
    };
    runInProcess(opt, wl, report);
}

} // namespace perfbench
