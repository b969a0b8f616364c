/** @file Tests for conductance mapping, DAC/ADC models and crossbar tiles. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "crossbar/crossbar.h"
#include "crossbar/mapping.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::crossbar;
using swordfish::testing::randomMatrix;

TEST(ConductanceMapper, ConductancesWithinDeviceRange)
{
    DeviceConfig dev;
    const ConductanceMapper mapper(dev);
    const auto pair = mapper.map(randomMatrix(8, 8, 1));
    const auto g_min = static_cast<float>(dev.gMin);
    const auto g_max = static_cast<float>(dev.gMax);
    for (float g : pair.gPos.raw()) {
        EXPECT_GE(g, g_min);
        EXPECT_LE(g, g_max);
    }
    for (float g : pair.gNeg.raw()) {
        EXPECT_GE(g, g_min);
        EXPECT_LE(g, g_max);
    }
}

TEST(ConductanceMapper, DifferentialEncodingSignSplit)
{
    DeviceConfig dev;
    const ConductanceMapper mapper(dev);
    Matrix w(1, 2, {0.5f, -0.5f});
    const auto pair = mapper.map(w, 1.0f);
    // Positive weight: gPos carries it, gNeg at gMin; negative: opposite.
    EXPECT_GT(pair.gPos(0, 0), pair.gNeg(0, 0));
    EXPECT_LT(pair.gPos(0, 1), pair.gNeg(0, 1));
    EXPECT_FLOAT_EQ(pair.gNeg(0, 0), static_cast<float>(dev.gMin));
    EXPECT_FLOAT_EQ(pair.gPos(0, 1), static_cast<float>(dev.gMin));
}

TEST(ConductanceMapper, EffectiveWeightsRecoverOriginals)
{
    DeviceConfig dev;
    dev.conductanceLevels = 1 << 16; // fine grid: tiny quantization error
    const ConductanceMapper mapper(dev);
    const Matrix w = randomMatrix(6, 6, 2);
    const auto pair = mapper.map(w);
    const Matrix rec = pair.effectiveWeights();
    const float tol = w.absMax() / 1000.0f;
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(rec.raw()[i], w.raw()[i], tol);
}

TEST(ConductanceMapper, QuantizationSnapsToLevels)
{
    DeviceConfig dev;
    dev.conductanceLevels = 4;
    dev.stateNonlinearity = 0.0;
    const ConductanceMapper mapper(dev);
    std::set<double> seen;
    for (double g = dev.gMin; g <= dev.gMax; g += (dev.gMax - dev.gMin) / 57)
        seen.insert(mapper.quantizeConductance(g));
    EXPECT_LE(seen.size(), 4u);
}

TEST(ConductanceMapper, QuantizeIsMonotoneWithNonlinearity)
{
    DeviceConfig dev;
    dev.stateNonlinearity = 2.0;
    const ConductanceMapper mapper(dev);
    double prev = 0.0;
    for (double g = dev.gMin; g <= dev.gMax;
         g += (dev.gMax - dev.gMin) / 97) {
        const double q = mapper.quantizeConductance(g);
        EXPECT_GE(q, prev - 1e-12);
        EXPECT_GE(q, dev.gMin);
        EXPECT_LE(q, dev.gMax);
        prev = q;
    }
}

TEST(DacModel, IdealIsPassThrough)
{
    const DacModel dac(DacConfig{}, 1, 0.5, /*ideal=*/true);
    EXPECT_FLOAT_EQ(dac.convert(0.37f), 0.37f);
}

TEST(DacModel, QuantizesAndClips)
{
    DacConfig cfg;
    cfg.bits = 3;
    cfg.inlSigmaLsb = 0.0;
    cfg.rLoadDroop = 0.0;
    const DacModel dac(cfg, 2, 0.0);
    // 3 bits: 8 codes over [-1, 1].
    std::set<float> outputs;
    for (float x = -1.5f; x <= 1.5f; x += 0.01f)
        outputs.insert(dac.convert(x));
    EXPECT_LE(outputs.size(), 8u);
}

TEST(DacModel, DroopCompressesVoltage)
{
    DacConfig cfg;
    cfg.bits = 8;
    cfg.inlSigmaLsb = 0.0;
    cfg.rLoadDroop = 0.2;
    const DacModel loaded(cfg, 3, 1.0);
    EXPECT_LT(loaded.convert(1.0f), 1.0f);
    EXPECT_GT(loaded.convert(-1.0f), -1.0f);
}

TEST(AdcModel, IdealIsPassThrough)
{
    const AdcModel adc(AdcConfig{}, 4, 10.0, /*ideal=*/true);
    Rng rng(1);
    EXPECT_FLOAT_EQ(adc.convert(3.21f, rng), 3.21f);
}

TEST(AdcModel, ClipsAtRange)
{
    AdcConfig cfg;
    cfg.noiseSigmaLsb = 0.0;
    cfg.gainSigma = 0.0;
    cfg.offsetSigmaLsb = 0.0;
    const AdcModel adc(cfg, 5, 2.0);
    Rng rng(2);
    EXPECT_LE(adc.convert(100.0f, rng), 2.0f + 1e-5f);
    EXPECT_GE(adc.convert(-100.0f, rng), -2.0f - 1e-5f);
}

TEST(AdcModel, QuantizationErrorBounded)
{
    AdcConfig cfg;
    cfg.bits = 6;
    cfg.noiseSigmaLsb = 0.0;
    cfg.gainSigma = 0.0;
    cfg.offsetSigmaLsb = 0.0;
    const AdcModel adc(cfg, 6, 1.0);
    Rng rng(3);
    const float step = 2.0f / 63.0f;
    for (float y = -0.99f; y < 0.99f; y += 0.013f)
        EXPECT_NEAR(adc.convert(y, rng), y, step * 0.51f);
}

namespace {

/**
 * The per-element DAC formula the block kernel replaced, written out with
 * std::lround. The Release build (-march=native, GCC's default
 * -ffp-contract=fast) fused `-1.0f + code * step` into an FMA, so the
 * reference spells that FMA out.
 */
float
lroundDac(const DacModel& dac, float x)
{
    const float step = dac.step();
    const float clipped = std::clamp(x, -1.0f, 1.0f);
    long code = std::lround((clipped + 1.0f) / step);
    code = std::clamp<long>(code, 0,
                            static_cast<long>(dac.inl().size()) - 1);
    float v = std::fmaf(static_cast<float>(code), step, -1.0f);
    v += dac.inl()[static_cast<std::size_t>(code)];
    v *= dac.droopFactor();
    return v;
}

/** The per-element noiseless ADC formula, FMAs spelled out likewise. */
float
lroundAdc(const AdcModel& adc, int bits, float y)
{
    const float step = adc.step();
    const auto range = static_cast<float>(adc.range());
    // With noiseSigmaLsb = 0 the old noise term added +0.
    float v = std::fmaf(y, adc.gain(), adc.offset());
    v = std::clamp(v, -range, range);
    long code = std::lround((v + range) / step);
    code = std::clamp<long>(code, 0, (1L << bits) - 1);
    return std::fmaf(static_cast<float>(code), step, -range);
}

/** True when q lies exactly half-way between two codes. */
bool
isTie(float q)
{
    return q - std::floor(q) == 0.5f;
}

/** `center` and its 8 float neighbours on either side. */
void
appendNeighbours(std::vector<float>& xs, float center)
{
    float lo = center;
    float hi = center;
    xs.push_back(center);
    for (int k = 0; k < 8; ++k) {
        lo = std::nextafter(lo, -std::numeric_limits<float>::infinity());
        hi = std::nextafter(hi, std::numeric_limits<float>::infinity());
        xs.push_back(lo);
        xs.push_back(hi);
    }
}

/** Inputs beyond the rails, shared by the DAC and ADC sweeps. */
const std::vector<float> kOutOfRange = {
    -std::numeric_limits<float>::infinity(), -1.0e6f, -100.0f, -1.5f,
    1.5f, 100.0f, 1.0e6f, std::numeric_limits<float>::infinity()};

} // namespace

TEST(ConverterBlock, DacBitwiseEqualsLroundFormula)
{
    for (int bits : {3, 5, 8}) {
        DacConfig cfg;
        cfg.bits = bits;
        const DacModel dac(cfg, 31 + static_cast<std::uint64_t>(bits), 0.7);
        const float step = dac.step();
        const long codes = 1L << bits;
        // Every code centre and every half-way point, with their float
        // neighbours, the rails and their neighbours, and out-of-range
        // inputs.
        std::vector<float> xs;
        for (long c = 0; c < codes; ++c) {
            appendNeighbours(xs, std::fmaf(static_cast<float>(c), step,
                                           -1.0f));
            appendNeighbours(xs, std::fmaf(static_cast<float>(c) + 0.5f,
                                           step, -1.0f));
        }
        appendNeighbours(xs, -1.0f);
        appendNeighbours(xs, 1.0f);
        xs.insert(xs.end(), kOutOfRange.begin(), kOutOfRange.end());

        std::vector<float> block = xs;
        dac.convertBlock(block.data(), block.size());
        std::size_t ties = 0;
        std::set<float> outputs;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const float clipped = std::clamp(xs[i], -1.0f, 1.0f);
            ties += isTie((clipped + 1.0f) / step) ? 1 : 0;
            const float expect = lroundDac(dac, xs[i]);
            outputs.insert(expect);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(block[i]),
                      std::bit_cast<std::uint32_t>(expect))
                << "bits=" << bits << " x=" << xs[i];
        }
        EXPECT_GT(ties, 0u) << "bits=" << bits;
        EXPECT_EQ(outputs.size(), static_cast<std::size_t>(codes));
    }
}

TEST(ConverterBlock, NoiselessAdcBitwiseEqualsLroundFormula)
{
    for (int bits : {4, 7}) {
        AdcConfig cfg;
        cfg.bits = bits;
        cfg.noiseSigmaLsb = 0.0;
        const AdcModel adc(cfg, 41 + static_cast<std::uint64_t>(bits), 2.0);
        const float step = adc.step();
        const auto range = static_cast<float>(adc.range());
        const long codes = 1L << bits;
        // Inputs whose gain/offset image lands on each code centre and
        // each half-way point, with their float neighbours.
        auto input_for = [&](float level) {
            return (level - adc.offset()) / adc.gain();
        };
        std::vector<float> ys;
        for (long c = 0; c < codes; ++c) {
            const auto fc = static_cast<float>(c);
            appendNeighbours(ys, input_for(std::fmaf(fc, step, -range)));
            appendNeighbours(ys,
                             input_for(std::fmaf(fc + 0.5f, step, -range)));
        }
        appendNeighbours(ys, input_for(-range));
        appendNeighbours(ys, input_for(range));
        ys.insert(ys.end(), kOutOfRange.begin(), kOutOfRange.end());

        std::vector<float> block = ys;
        Rng rng(5);
        adc.convertBlock(block.data(), block.size(), rng);
        std::size_t ties = 0;
        for (std::size_t i = 0; i < ys.size(); ++i) {
            const float v = std::clamp(
                std::fmaf(ys[i], adc.gain(), adc.offset()), -range, range);
            ties += isTie((v + range) / step) ? 1 : 0;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(block[i]),
                      std::bit_cast<std::uint32_t>(
                          lroundAdc(adc, bits, ys[i])))
                << "bits=" << bits << " y=" << ys[i];
        }
        EXPECT_GT(ties, 0u) << "bits=" << bits;
    }
}

TEST(ConverterBlock, SplitIndependentBitsAndStream)
{
    const AdcModel adc(AdcConfig{}, 51, 3.0);
    const DacModel dac(DacConfig{}, 52, 0.4);
    const std::size_t n = 203; // not a multiple of any split or block
    std::vector<float> input(n);
    Rng src(53);
    for (float& v : input)
        v = static_cast<float>(src.uniform(-3.5, 3.5));

    std::vector<float> adc_whole = input;
    Rng whole_rng(54);
    adc.convertBlock(adc_whole.data(), n, whole_rng);
    const auto next_whole = whole_rng();
    std::vector<float> dac_whole = input;
    dac.convertBlock(dac_whole.data(), n);

    for (std::size_t chunk : {1, 7, 64}) {
        std::vector<float> adc_split = input;
        std::vector<float> dac_split = input;
        Rng split_rng(54);
        for (std::size_t at = 0; at < n; at += chunk) {
            const std::size_t len = std::min(chunk, n - at);
            adc.convertBlock(adc_split.data() + at, len, split_rng);
            dac.convertBlock(dac_split.data() + at, len);
        }
        EXPECT_EQ(split_rng(), next_whole) << "chunk=" << chunk;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(adc_split[i]),
                      std::bit_cast<std::uint32_t>(adc_whole[i]))
                << "chunk=" << chunk << " i=" << i;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(dac_split[i]),
                      std::bit_cast<std::uint32_t>(dac_whole[i]))
                << "chunk=" << chunk << " i=" << i;
        }
    }

    // The one-element calls are the same kernel on the same stream.
    Rng single_rng(54);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(adc.convert(input[i],
                                                           single_rng)),
                  std::bit_cast<std::uint32_t>(adc_whole[i]));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(dac.convert(input[i])),
                  std::bit_cast<std::uint32_t>(dac_whole[i]));
    }
    EXPECT_EQ(single_rng(), next_whole);
}

TEST(ConverterBlock, IdealAdcDrawsNothing)
{
    const AdcModel adc(AdcConfig{}, 61, 1.0, /*ideal=*/true);
    std::vector<float> ys = {0.25f, -3.0f, 7.5f};
    Rng rng(62), untouched(62);
    adc.convertBlock(ys.data(), ys.size(), rng);
    EXPECT_EQ(ys, (std::vector<float>{0.25f, -3.0f, 7.5f}));
    EXPECT_EQ(rng(), untouched());
}

TEST(CrossbarTile, AllOffReproducesExactWeights)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 4);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::allOff(), 5);
    const Matrix& eff = tile.effectiveWeights();
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(eff.raw()[i], w.raw()[i], w.absMax() / 500.0f);
}

TEST(CrossbarTile, AllOffVmmMatchesGemm)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(12, 10, 6);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::allOff(), 7);
    const Matrix x = randomMatrix(5, 10, 8);
    Rng rng(9);
    const Matrix y = tile.vmmFast(x, rng);
    Matrix expect;
    gemmBT(x, w, expect);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y.raw()[i], expect.raw()[i],
                    0.01f * std::max(1.0f, expect.absMax()));
}

TEST(CrossbarTile, FastAndCircuitPathsAgree)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(20, 20, 10);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 11);
    std::vector<float> x(20);
    Rng xr(12);
    for (float& v : x)
        v = static_cast<float>(xr.gauss(0.0, 0.5));

    Matrix xm(1, 20, std::vector<float>(x));
    // Same seed for the two conversion streams so ADC noise matches.
    Rng r1(77), r2(77);
    const Matrix y_fast = tile.vmmFast(xm, r1);
    const auto y_circ = tile.vmmCircuit(x, r2);
    for (std::size_t o = 0; o < y_circ.size(); ++o)
        EXPECT_NEAR(y_fast(0, o), y_circ[o],
                    2e-3f * std::max(1.0f, std::fabs(y_circ[o])));
}

TEST(CrossbarTile, WriteVariationGrowsWithRate)
{
    const Matrix w = randomMatrix(32, 32, 13);
    auto mean_error = [&](double rate) {
        CrossbarConfig config;
        config.writeVariationRate = rate;
        NoiseToggles toggles = NoiseToggles::allOff();
        toggles.writeVariation = true;
        toggles.conductanceQuant = true;
        double err = 0.0;
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
            const CrossbarTile tile(config, w, 0.0f, toggles, seed);
            err += tile.cellErrorMagnitude().frobeniusNorm();
        }
        return err;
    };
    const double low = mean_error(0.02);
    const double mid = mean_error(0.10);
    const double high = mean_error(0.30);
    EXPECT_LT(low, mid);
    EXPECT_LT(mid, high);
}

TEST(CrossbarTile, WriteReadVerifyShrinksError)
{
    const Matrix w = randomMatrix(32, 32, 14);
    NoiseToggles toggles = NoiseToggles::allOff();
    toggles.writeVariation = true;
    CrossbarConfig pulse;
    pulse.scheme = WriteScheme::PulseSetReset;
    CrossbarConfig wrv;
    wrv.scheme = WriteScheme::WriteReadVerify;
    const CrossbarTile tp(pulse, w, 0.0f, toggles, 15);
    const CrossbarTile tv(wrv, w, 0.0f, toggles, 15);
    EXPECT_LT(tv.cellErrorMagnitude().frobeniusNorm(),
              tp.cellErrorMagnitude().frobeniusNorm());
}

TEST(CrossbarTile, WireAttenuationShrinksMagnitudes)
{
    Matrix w(32, 32);
    w.fill(0.8f); // uniformly large weights: heavy line loading
    NoiseToggles wire_only = NoiseToggles::allOff();
    wire_only.wireResistance = true;
    CrossbarConfig config;
    const CrossbarTile tile(config, w, 1.0f, wire_only, 16);
    const Matrix& eff = tile.effectiveWeights();
    double sum_eff = 0.0;
    for (float v : eff.raw())
        sum_eff += v;
    EXPECT_LT(sum_eff, 0.8 * 32 * 32); // strictly attenuated
    // Far corner (last input, first output... the most distant cell from
    // both driver and sense amp) must be weaker than the nearest cell.
    EXPECT_LT(eff(31, 0), eff(0, 31));
}

TEST(CrossbarTile, RemapRestoresSelectedCells)
{
    CrossbarConfig config;
    config.writeVariationRate = 0.4;
    const Matrix w = randomMatrix(8, 8, 17);
    CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 18);
    std::vector<std::uint8_t> mask(w.size(), 0);
    mask[3] = 1;
    mask[20] = 1;
    tile.remapCellsToSram(mask);
    EXPECT_FLOAT_EQ(tile.effectiveWeights().raw()[3], w.raw()[3]);
    EXPECT_FLOAT_EQ(tile.effectiveWeights().raw()[20], w.raw()[20]);
}

TEST(CrossbarTile, OversizedSubMatrixPanics)
{
    CrossbarConfig config;
    config.size = 8;
    const Matrix w = randomMatrix(9, 4, 19);
    EXPECT_DEATH(CrossbarTile(config, w, 0.0f, NoiseToggles::allOff(), 20),
                 "exceeds");
}

TEST(CrossbarTile, DeterministicForSameSeed)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 21);
    const CrossbarTile a(config, w, 0.0f, NoiseToggles::combined(), 42);
    const CrossbarTile b(config, w, 0.0f, NoiseToggles::combined(), 42);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_FLOAT_EQ(a.effectiveWeights().raw()[i],
                        b.effectiveWeights().raw()[i]);
}

TEST(WriteScheme, EffectiveSigmaHalvesPerIteration)
{
    EXPECT_DOUBLE_EQ(effectiveWriteSigma(WriteScheme::PulseSetReset, 0.1),
                     0.1);
    EXPECT_DOUBLE_EQ(
        effectiveWriteSigma(WriteScheme::WriteReadVerify, 0.1, 2), 0.025);
    EXPECT_DOUBLE_EQ(
        effectiveWriteSigma(WriteScheme::WriteReadVerify, 0.1, 4),
        0.00625);
}
