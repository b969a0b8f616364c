/**
 * @file
 * pipeline_digital: the Fig. 1 pipeline. basecall::runPipeline (basecall,
 * map, polish) on the trained teacher with the FP32 ideal backend, batch
 * 8, one dataset per unit. No crossbar work: host time goes to the nn and
 * tensor forward pass, CTC decoding and genomics mapping and alignment,
 * so a converter change must not move it.
 */

#include "basecall/pipeline.h"
#include "inprocess.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

UnitOutcome
outcomeOf(const basecall::PipelineReport& r, std::size_t reads)
{
    UnitOutcome out;
    out.reads = reads;
    out.degraded = r.degraded.skippedReads();
    out.accuracy = r.meanMapIdentity;
    out.outputs = {r.mappedFraction, r.meanMapIdentity,
                   static_cast<double>(r.degraded.survivors())};
    return out;
}

} // namespace

void
runPipelineDigital(const Options& opt, Report& report)
{
    const Sizes sizes = sizesFor(opt.smoke);
    auto request = [&](const genomics::Dataset& ds) {
        return basecall::EvalOptions(ds)
            .maxReads(sizes.pipelineReads)
            .batch(sizes.batch);
    };

    InProcessWorkload wl;
    wl.name = "pipeline_digital";
    wl.readsPerDataset = sizes.pipelineReads;
    wl.run = [&](nn::SequenceModel& teacher, const genomics::Dataset& ds,
                 std::size_t) {
        return outcomeOf(basecall::runPipeline(teacher, request(ds)),
                         sizes.pipelineReads);
    };
    wl.traced = [&](nn::SequenceModel& teacher, const genomics::Dataset& ds,
                    std::size_t, LayerClock& clock) {
        nn::IdealVmmBackend ideal;
        TracingBackend traced(ideal, clock);
        teacher.setBackend(&traced);
        const basecall::PipelineReport r =
            basecall::runPipeline(teacher, request(ds));
        teacher.setBackend(nullptr);
        return outcomeOf(r, sizes.pipelineReads);
    };
    wl.checkAccuracy = [&](const std::vector<UnitOutcome>& first,
                           Report& r) {
        double identity = 0.0, mapped = 0.0;
        std::string per_dataset = "{";
        for (std::size_t d = 0; d < first.size(); ++d) {
            const double n = static_cast<double>(first.size());
            identity += first[d].accuracy / n;
            mapped += first[d].outputs[0] / n;
            per_dataset += (d ? ", \"" : "\"") + datasetIds()[d]
                + "\": " + jsonNumber(first[d].outputs[0]);
        }
        r.info("mapped_fraction", per_dataset + "}");
        if (opt.smoke)
            return; // the smoke teacher is barely trained
        checkAccuracy("pipeline_digital D1-D4 mean map identity", identity,
                      kPipelineAccuracy, r);
        r.check(mapped >= kPipelineMinMappedFraction,
                "pipeline_digital D1-D4 mean mapped fraction "
                    + jsonNumber(mapped) + " below "
                    + jsonNumber(kPipelineMinMappedFraction));
    };
    runInProcess(opt, wl, report);
}

} // namespace perfbench
