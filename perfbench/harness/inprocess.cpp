#include "inprocess.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "basecall/bonito_lite.h"

#include "layers.h"
#include "util/thread_pool.h"

namespace perfbench {

bool
sameOutcome(const UnitOutcome& a, const UnitOutcome& b)
{
    if (a.reads != b.reads || a.degraded != b.degraded
        || a.outputs.size() != b.outputs.size())
        return false;
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        if (!sameBits(a.outputs[i], b.outputs[i]))
            return false;
    return true;
}

std::string
describe(const UnitOutcome& a, const UnitOutcome& b)
{
    std::string out;
    for (const UnitOutcome* o : {&a, &b}) {
        out.append(out.empty() ? "[" : " vs [");
        out.append(std::to_string(o->reads)).append(" reads, ");
        out.append(std::to_string(o->degraded)).append(" degraded");
        for (const double v : o->outputs)
            out.append(", ").append(jsonNumber(v));
        out.append("]");
    }
    return out;
}

namespace {

/**
 * Largest share by which a traced unit's wrapped VMM time may differ from
 * the program's `vmm` span over the same units. The wrapper times each
 * call from outside, so it also counts the call and its own clock reads.
 */
constexpr double kWrappedVmmTolerance = 0.05;

struct Prepared
{
    std::vector<genomics::Dataset> datasets;
    nn::SequenceModel teacher;
    SetupTimes times;
};

/**
 * The seeded input datasets, the teacher and one untimed warm-up unit (the
 * first call in a process is markedly slower than later ones). A set-up
 * run trains the teacher into an empty artifact directory; the measured
 * run loads the teacher the last set-up saved, so training memory and
 * threads never share its process.
 */
Prepared
prepare(const Options& opt, const InProcessWorkload& wl,
        const std::string& trained_teacher)
{
    Prepared p;
    const Clock::time_point t0 = Clock::now();
    for (const std::string& id : datasetIds())
        p.datasets.push_back(
            makeInputDataset(id, opt.seed, wl.readsPerDataset));
    p.times.datasetSeconds = secondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    if (trained_teacher.empty()) {
        p.teacher =
            trainTeacher(sizesFor(opt.smoke), opt.workDir + "/artifacts");
    } else {
        p.teacher = basecall::buildBonitoLite();
        if (!p.teacher.load(trained_teacher))
            throw std::runtime_error("cannot load " + trained_teacher);
    }
    p.times.trainSeconds = secondsSince(t1);
    wl.run(p.teacher, p.datasets[0], 0);
    p.times.setupSeconds = secondsSince(t0);
    return p;
}

/** Crossbar counts of a window must be whole multiples of one unit's. */
void
checkCounts(const InProcessWorkload& wl, const RegistryDelta& reg,
            std::size_t units, Report& report)
{
    const struct
    {
        const char* counter;
        std::uint64_t perUnit;
    } expected[] = {
        {"vmm.calls", wl.unitCounts.vmmCalls},
        {"vmm.tile_vmms", wl.unitCounts.tileVmms},
        {"vmm.dac_conversions", wl.unitCounts.dacConversions},
        {"vmm.adc_conversions", wl.unitCounts.adcConversions},
    };
    for (const auto& e : expected) {
        const std::uint64_t got = reg.counter(e.counter);
        report.check(got == e.perUnit * units,
                     std::string(e.counter) + " = " + std::to_string(got)
                         + " over " + std::to_string(units)
                         + " units, recorded " + std::to_string(e.perUnit)
                         + " per unit");
    }
}

} // namespace

void
runInProcess(const Options& opt, const InProcessWorkload& wl, Report& report)
{
    setGlobalPoolThreads(opt.poolThreads);
    if (opt.setupOnly) {
        printSetupLine(prepare(opt, wl, "").times);
        return;
    }

    // Every set-up runs cold in its own process; this process measures
    // with the teacher the last one trained.
    const std::vector<SetupTimes> setups = runSetupChildren(opt);
    auto teacher_of = [&](std::size_t k) {
        return opt.workDir + "/setup" + std::to_string(k)
            + "/artifacts/teacher.bin";
    };
    Prepared p = prepare(opt, wl, teacher_of(setups.size() - 1));
    for (std::size_t k = 0; k + 1 < setups.size(); ++k)
        report.check(sameFileBytes(teacher_of(k),
                                   teacher_of(setups.size() - 1)),
                     "teacher of set-up " + std::to_string(k)
                         + " differs from the measured one");
    const std::size_t n_sets = p.datasets.size();

    // The timed window: units cycle over D1..D4 until every dataset ran
    // once and the time is up. In a traced run each unit runs untraced and
    // then traced, and the two must agree bitwise.
    std::vector<UnitOutcome> first(n_sets);
    std::vector<double> latency;
    std::size_t reads = 0, degraded = 0;
    double traced_wall = 0.0;
    std::size_t traced_reads = 0;
    LayerClock clock(mappedWeightNames(p.teacher));
    RegistryDelta untraced_reg, traced_reg;
    MemorySampler memory(heapInUseMb);
    const Clock::time_point w0 = Clock::now();
    for (std::size_t u = 0; u < n_sets || secondsSince(w0) < opt.seconds;
         ++u) {
        const std::size_t d = u % n_sets;
        const MetricsSnapshot before = metrics().snapshot();
        const Clock::time_point t0 = Clock::now();
        const UnitOutcome out = wl.run(p.teacher, p.datasets[d], d);
        latency.push_back(secondsSince(t0));
        const MetricsSnapshot after = metrics().snapshot();
        untraced_reg.add(RegistryDelta::between(before, after));
        reads += out.reads;
        degraded += out.degraded;
        if (u < n_sets)
            first[d] = out;
        else
            report.check(sameOutcome(out, first[d]),
                         "repeated unit on " + datasetIds()[d]
                             + " is not bitwise equal: "
                             + describe(out, first[d]));
        if (!opt.trace)
            continue;

        const Clock::time_point t1 = Clock::now();
        const UnitOutcome traced =
            wl.traced(p.teacher, p.datasets[d], d, clock);
        traced_wall += secondsSince(t1);
        traced_reg.add(RegistryDelta::between(after, metrics().snapshot()));
        traced_reads += traced.reads;
        report.check(sameOutcome(traced, out),
                     "traced unit on " + datasetIds()[d]
                         + " is not bitwise equal to the untraced one: "
                         + describe(traced, out));
    }

    const double memory_mb = memory.stop();
    checkCounts(wl, untraced_reg, latency.size(), report);
    if (opt.trace)
        checkCounts(wl, traced_reg, latency.size(), report);
    wl.checkAccuracy(first, report);
    if (wl.checkVmm)
        wl.checkVmm(p.teacher, p.datasets, first[0], report);
    const std::vector<std::pair<std::string, double>> arch = archOutputs();
    checkArchOutputs(arch, report);
    report.attempted = reads;
    report.failed = degraded;

    double untraced_wall = 0.0;
    for (const double s : latency)
        untraced_wall += s;
    report.info("workload", "\"" + wl.name + "\"");
    report.info("units", static_cast<double>(latency.size()));
    report.info("reads", static_cast<double>(reads));
    report.info("setup_samples", static_cast<double>(setups.size()));
    std::string acc = "{";
    for (std::size_t d = 0; d < n_sets; ++d)
        acc += (d ? ", \"" : "\"") + datasetIds()[d]
            + "\": " + jsonNumber(first[d].accuracy);
    report.info("accuracy", acc + "}");

    if (!opt.trace) {
        std::size_t slo_met = 0;
        for (const double s : latency)
            slo_met += s <= opt.sloSeconds ? 1 : 0;
        report.metric("reads_per_s",
                      static_cast<double>(reads) / untraced_wall, "reads/s");
        report.metric("job_p50_s", quantile(latency, 0.5), "s");
        report.metric("job_p90_s", quantile(latency, 0.9), "s");
        report.metric("slo_met_frac",
                      static_cast<double>(slo_met)
                          / static_cast<double>(latency.size()),
                      "fraction");
        report.metric("success_frac",
                      1.0 - static_cast<double>(degraded)
                          / static_cast<double>(reads),
                      "fraction");
        report.metric("setup_s",
                      median(pick(setups, &SetupTimes::setupSeconds)), "s");
        report.metric("mem_p95_mb", memory_mb, "MiB");
        return;
    }

    // Per-layer accounting of the traced units, in thread-seconds per
    // read: the pool's capacity over the traced wall time is split into
    // the layers' self times plus an `other` remainder (idle workers,
    // scheduling, model copies, result folding).
    const double width =
        static_cast<double>(std::max<std::size_t>(1, opt.poolThreads));
    const double per_read = 1.0 / static_cast<double>(traced_reads);
    const double vmm = clock.vmmSeconds();
    const double forward_self = clock.forwardSeconds() - vmm;
    report.check(forward_self >= 0.0,
                 "VMM time lies outside the traced forward passes");
    const double ctc = traced_reg.span("ctc");
    const double gather = traced_reg.span("chunk");
    const double align = traced_reg.span("align");
    const double program = traced_reg.span("program");
    const double map_stages =
        traced_reg.span("pipeline.map") + traced_reg.span("pipeline.polish");
    // The mapping and polishing stages run alignments on the pool; what
    // is left of their capacity is indexing, seeding and idle workers.
    const double map = map_stages > 0.0 ? width * map_stages - align : 0.0;
    const double capacity = width * traced_wall;
    const double other = capacity - vmm - forward_self - ctc - gather
        - align - map - program;
    report.check(other >= -0.02 * capacity,
                 "layer self-times exceed the traced capacity by "
                     + jsonNumber(-other) + " s");

    LayerTable layers;
    const bool crossbar = wl.unitCounts.adcConversions > 0;
    if (crossbar) {
        // The VMM and programming times are the program's own spans over
        // the untraced units. A traced unit that wraps the backend itself
        // must see the VMM time the program records for the same units.
        const double span_vmm = traced_reg.span("vmm");
        report.check(std::fabs(vmm / span_vmm - 1.0) <= kWrappedVmmTolerance,
                     "wrapped VMM time " + jsonNumber(vmm)
                         + " s is not within "
                         + jsonNumber(kWrappedVmmTolerance * 100.0)
                         + " % of the program's vmm span "
                         + jsonNumber(span_vmm) + " s");
        report.info("wrapped_vmm_over_span", vmm / span_vmm);
        const double untraced_vmm = untraced_reg.span("vmm");
        // Far from 1 when the copy of the evaluator loop has drifted from
        // the program's (the per-weight split would then time another loop).
        report.info("wrapped_over_program_vmm_per_read",
                    vmm * per_read
                        / (untraced_vmm / static_cast<double>(reads)));
        layers.set("core.vmm_s",
                   untraced_vmm / static_cast<double>(reads));
        layers.set("core.vmm_ns_per_adc",
                   untraced_vmm * 1e9
                       / static_cast<double>(
                           untraced_reg.counter("vmm.adc_conversions")));
        layers.set("core.program_s",
                   untraced_reg.span("program")
                       / static_cast<double>(
                           untraced_reg.counter("mc.runs")));
        for (std::size_t i = 0; i < clock.weights().size(); ++i)
            layers.set("core.vmm." + clock.weights()[i] + "_s",
                       clock.weightSeconds(i) * per_read);
    } else {
        layers.set("tensor.gemm_s", vmm * per_read);
    }
    auto per_read_count = [&](const char* counter) {
        return static_cast<double>(traced_reg.counter(counter)) * per_read;
    };
    layers.set("core.vmm_calls_per_read", per_read_count("vmm.calls"));
    layers.set("crossbar.tile_vmms_per_read",
               per_read_count("vmm.tile_vmms"));
    layers.set("crossbar.adc_conv_per_read",
               per_read_count("vmm.adc_conversions"));
    layers.set("crossbar.dac_conv_per_read",
               per_read_count("vmm.dac_conversions"));
    layers.set("nn.forward_self_s", forward_self * per_read);
    layers.set("basecall.gather_s", gather * per_read);
    layers.set("basecall.ctc_s", ctc * per_read);
    layers.set("basecall.train_s",
               median(pick(setups, &SetupTimes::trainSeconds)));
    layers.set("genomics.dataset_s",
               median(pick(setups, &SetupTimes::datasetSeconds)));
    layers.set("genomics.align_s", align * per_read);
    layers.set("genomics.map_s", map * per_read);
    layers.set("other_s", other * per_read);
    layers.set("trace_overhead_frac", traced_wall / untraced_wall - 1.0);
    for (const auto& [name, value] : arch)
        layers.set(name, value);
    layers.emit(report);
    report.info("traced_reads", static_cast<double>(traced_reads));
}

} // namespace perfbench
