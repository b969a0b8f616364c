#include "converters.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace swordfish::crossbar {

namespace {

/** Values per pass: the stack blocks of DAC codes and ADC noise. */
constexpr std::size_t kBlock = 64;

// The kernels spell every multiply-add as std::fmaf, so the vectorized
// body and the scalar remainder round alike whatever the compiler's
// contraction choices; these are the FMAs the Release build already fused
// the per-element formulas into.

/**
 * Nearest code to q >= 0 with ties away from zero (what std::lround does
 * there), clamped to [0, top]. Clamping first keeps the int conversion
 * defined (a NaN q maps to code 0, as lround's LONG_MIN did after the
 * clamp) and moves no code, since top is an integer; q - trunc(q) is
 * exact, so the tie test matches lround bit for bit.
 */
inline std::int32_t
nearestCode(float q, float top)
{
    q = std::min(std::max(0.0f, q), top);
    const auto c = static_cast<std::int32_t>(q);
    return c + (q - static_cast<float>(c) >= 0.5f ? 1 : 0);
}

/**
 * DacModel::convertBlock's loops. Codes are found in one pass and looked
 * up in a second, so the INL gather sees no control flow; restrict lets
 * it vectorize.
 */
void
dacKernel(float* __restrict xs, std::size_t n, const float* __restrict inl,
          float step, float top, float droop)
{
    std::int32_t codes[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = std::min(kBlock, n - base);
        float* x = xs + base;
        // Clipping x to [-1, 1] first would pick the same codes: the
        // clamp inside nearestCode() already maps every input beyond the
        // rails to code 0 or top.
        for (std::size_t i = 0; i < m; ++i)
            codes[i] = nearestCode((x[i] + 1.0f) / step, top);
        for (std::size_t i = 0; i < m; ++i) {
            const float v =
                std::fmaf(static_cast<float>(codes[i]), step, -1.0f)
                + inl[codes[i]];
            // R_load droop compresses the delivered voltage toward zero.
            x[i] = v * droop;
        }
    }
}

} // namespace

DacModel::DacModel(const DacConfig& config, std::uint64_t seed,
                   double line_load_factor, bool ideal)
    : config_(config), ideal_(ideal)
{
    const long codes = 1L << config_.bits;
    step_ = 2.0f / static_cast<float>(codes - 1); // values span [-1, 1]
    // The driver sees a load floor even on a lightly-programmed array
    // (select transistors, line capacitance), so droop never vanishes.
    droopGain_ = config_.rLoadDroop
        * (0.3 + 0.7 * std::clamp(line_load_factor, 0.0, 1.0));

    if (!ideal_) {
        // Static INL profile: smooth low-order bow plus random per-code
        // deviations, a standard DAC INL shape.
        Rng rng(hashSeed({seed, 0xdacdacULL}));
        const double bow = rng.gauss(0.0, config_.inlSigmaLsb);
        inl_.resize(static_cast<std::size_t>(codes));
        for (long c = 0; c < codes; ++c) {
            const double frac = static_cast<double>(c)
                / static_cast<double>(codes - 1);
            const double smooth = bow * std::sin(M_PI * frac);
            const double local = rng.gauss(0.0,
                                           config_.inlSigmaLsb * 0.35);
            inl_[static_cast<std::size_t>(c)] =
                static_cast<float>((smooth + local) * step_);
        }
    }
}

void
DacModel::convertBlock(float* xs, std::size_t n) const
{
    if (ideal_)
        return;
    dacKernel(xs, n, inl_.data(), step_,
              static_cast<float>(inl_.size() - 1), droopFactor());
}

AdcModel::AdcModel(const AdcConfig& config, std::uint64_t seed,
                   double range, bool ideal)
    : config_(config), ideal_(ideal), range_(std::max(range, 1e-9))
{
    const long codes = 1L << config_.bits;
    step_ = static_cast<float>(2.0 * range_ / static_cast<double>(codes - 1));
    Rng rng(hashSeed({seed, 0xadcadcULL}));
    gain_ = static_cast<float>(1.0 + rng.gauss(0.0, config_.gainSigma));
    offset_ = static_cast<float>(rng.gauss(0.0, config_.offsetSigmaLsb)
                                 * step_);
}

void
AdcModel::convertBlock(float* ys, std::size_t n, Rng& rng) const
{
    if (ideal_)
        return;
    const double sigma = config_.noiseSigmaLsb;
    const float gain = gain_;
    const float offset = offset_;
    const float step = step_;
    const float range = static_cast<float>(range_);
    const float top = static_cast<float>((1L << config_.bits) - 1);
    double z[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = std::min(kBlock, n - base);
        // Two passes: the sampler's branches stay out of the quantize
        // loop, which the compiler can then vectorize.
        rng.gaussZigguratFill(z, m);
        float* y = ys + base;
        for (std::size_t i = 0; i < m; ++i) {
            const auto noise = static_cast<float>(sigma * z[i]);
            float v = std::fmaf(y[i], gain, offset);
            v = std::fmaf(noise, step, v);
            v = std::min(std::max(v, -range), range);
            const std::int32_t code = nearestCode((v + range) / step, top);
            y[i] = std::fmaf(static_cast<float>(code), step, -range);
        }
    }
}

} // namespace swordfish::crossbar
