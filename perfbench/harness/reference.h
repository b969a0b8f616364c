/**
 * @file
 * Recorded reference values the harness checks its outputs against.
 *
 * Modelled outputs and crossbar counts depend only on the network
 * geometry, the dataset specs and the fixed read-length schedule, never
 * on the seed, so they are compared exactly: a change that only makes the
 * host faster must leave them identical.
 *
 * Accuracies depend on the seed. Each is compared to its recorded mean
 * over seeds 1..20 within a stated tolerance of more than twice the
 * largest deviation seen over those seeds: wide enough for a one-time
 * change of the noise bits (a new noise stream is one more draw from the
 * same spread), far too narrow for a broken evaluator (an untrained or
 * broken basecaller scores near 0, the ideal backend about 0.91). The VMM
 * error probe below catches what accuracy is too coarse to see.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>

#include "core/nonideality.h"

namespace perfbench {

struct RecordedValue
{
    const char* name;
    double value;
};

/** archOutputs() of the fixed teacher geometry at batch 8. */
inline constexpr RecordedValue kRecordedArch[] = {
    {"arch.kbps.bonito_gpu", 5.1413881748071981},
    {"arch.energy_uj_per_kb.bonito_gpu", 74.688000000000002},
    {"arch.kbps.ideal", 6897.9895809174459},
    {"arch.energy_uj_per_kb.ideal", 5.2205507999999989},
    {"arch.kbps.rvw", 3.5629875075510924},
    {"arch.energy_uj_per_kb.rvw", 22.051649391549297},
    {"arch.kbps.rsa", 27.288824852128521},
    {"arch.energy_uj_per_kb.rsa", 7.8177507999999998},
    {"arch.kbps.rsa_kd", 134.31768377420281},
    {"arch.energy_uj_per_kb.rsa_kd", 5.7399907999999993},
    {"arch.area_mm2", 0.283477376},
};

/** Crossbar counts of one mc_combined unit (8 reads x 4 runs). */
struct UnitCounts
{
    std::uint64_t vmmCalls;
    std::uint64_t tileVmms;
    std::uint64_t dacConversions;
    std::uint64_t adcConversions;
};
inline constexpr UnitCounts kMcUnitCounts = {11996, 23984, 10498056,
                                              20073480};
/** The same for the smoke sizes (8 reads x 2 runs). */
inline constexpr UnitCounts kMcSmokeUnitCounts = {5998, 11992, 5249028,
                                                   10036740};

/**
 * mc_combined: relative error sqrt(sum (y - xW^T)^2 / sum (xW^T)^2) of the
 * crossbar VMM outputs of the trained teacher in probe units on D1, over
 * every mapped weight of one Monte-Carlo run, median over the probe's runs
 * (the Combined window unit's 4, 8 for each non-ideality alone), with its
 * tolerance as a share of the recorded mean. Over seeds 1..12 the medians
 * deviate from the mean by at most 3.2 % (Combined), 7.3 % (SenseAdc),
 * 11.8 % (DacDriver: a rare DAC instance draw makes one run's error up to
 * three times the usual one; seed 130 reads +13.1 %) and 0.9 %
 * (SynapticWires). Short-circuiting the ADC moves SenseAdc by -98 % and
 * Combined by -8 % (seed 3).
 */
struct ErrorRef
{
    const char* name;
    core::NonIdealityKind kind;
    double value;
    double tolerance;
};
inline constexpr ErrorRef kMcVmmError[] = {
    {"combined", core::NonIdealityKind::Combined, 0.2140, 0.08},
    {"sense_adc", core::NonIdealityKind::SenseAdc, 0.0866, 0.25},
    {"dac_driver", core::NonIdealityKind::DacDriver, 0.0592, 0.35},
    {"synaptic_wires", core::NonIdealityKind::SynapticWires, 0.1633, 0.08},
};

/** Accuracy reference and tolerance (absolute identity). */
struct AccuracyRef
{
    double mean;
    double tolerance;
};

/** mc_combined: Monte-Carlo mean identity, averaged over D1..D4 (seeds
 *  1..20: sd 0.023, extremes 0.477 and 0.559). */
inline constexpr AccuracyRef kMcAccuracy = {0.517, 0.10};
/** pipeline_digital: mean map identity, averaged over D1..D4 (seeds
 *  1..20: sd 0.003, extremes 0.902 and 0.914). */
inline constexpr AccuracyRef kPipelineAccuracy = {0.9076, 0.02};
/** pipeline_digital: least share of reads mapped, averaged over D1..D4.
 *  Per dataset it is too seed-dependent to bound: over seeds 1..20 every
 *  dataset mapped at least 14 of its 16 reads, but seed 36 maps 10 of
 *  D3's. A mapper that drops reads or stops seeding falls far below. */
inline constexpr double kPipelineMinMappedFraction = 0.75;

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
