/** @file Tests for the simulated fixed-point quantizer. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/quantize.h"
#include "tensor/simd.h"
#include "test_util.h"

using namespace swordfish;
using swordfish::testing::randomMatrix;

TEST(Quantizer, ThirtyTwoBitsIsIdentity)
{
    const Quantizer q(32);
    EXPECT_TRUE(q.isIdentity());
    Matrix m = randomMatrix(4, 4, 1);
    const Matrix orig = m;
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.raw()[i], orig.raw()[i]);
}

namespace {

/** The quantizer's reference formula: fmax/fmin clamp, nearbyint. */
float
referenceApply(float v, float scale, float max_level)
{
    if (scale <= 0.0f)
        return v;
    const float q = std::nearbyint(v / scale);
    return std::fmin(std::fmax(q, -max_level - 1.0f), max_level) * scale;
}

/** Reference per-range quantization: std::max absmax scan, then apply. */
void
referenceApplyRange(float* v, std::size_t n, int bits)
{
    const auto max_level = static_cast<float>((1u << (bits - 1)) - 1);
    float abs_max = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        abs_max = std::max(abs_max, std::fabs(v[i]));
    const float scale = abs_max <= 0.0f ? 0.0f : abs_max / max_level;
    for (std::size_t i = 0; i < n; ++i)
        v[i] = referenceApply(v[i], scale, max_level);
}

bool
sameBits(float a, float b)
{
    std::uint32_t ua, ub;
    std::memcpy(&ua, &a, 4);
    std::memcpy(&ub, &b, 4);
    return ua == ub;
}

} // namespace

TEST(Quantizer, MatchesReferenceFormulaBitwiseOnEdgeValues)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    for (const int bits : {2, 4, 8, 16}) {
        const auto max_level = static_cast<float>((1u << (bits - 1)) - 1);
        // Lane 0: absmax max_level / 4, so the scale is exactly 0.25 and
        // (k + 0.5) / 4 are exact rounding ties; also NaN and -0. Lane 1:
        // ±Inf (infinite scale). Lane 2: zeros only (scale 0, untouched).
        // 13 columns leave a scalar remainder after the 8-wide blocks.
        const std::size_t rows = 3, cols = 13;
        Matrix m(3 * rows, cols);
        Rng rng(static_cast<std::uint64_t>(bits));
        for (float& v : m.raw())
            v = static_cast<float>(rng.uniform(-1.0, 1.0)) * max_level
                / 8.0f;
        const float lane0[] = {max_level / 4.0f, 0.125f, -0.125f, 0.375f,
                               -0.625f, 1.125f, kNan, -0.0f, 0.0f,
                               -max_level / 4.0f};
        std::copy(std::begin(lane0), std::end(lane0), m.rowPtr(0));
        m.at(rows, 0) = kInf;
        m.at(rows + 1, 5) = -kInf;
        m.at(rows + 2, 12) = kNan;
        for (std::size_t r = 2 * rows; r < 3 * rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                m.at(r, c) = (c % 2 == 0) ? -0.0f : 0.0f;

        Matrix want = m;
        for (std::size_t l = 0; l < 3; ++l)
            referenceApplyRange(want.rowPtr(l * rows), rows * cols, bits);
        Matrix want_whole = m;
        referenceApplyRange(want_whole.raw().data(), m.size(), bits);
        Matrix finite = m;
        for (std::size_t c = 0; c < cols; ++c)
            for (std::size_t r = rows; r < 2 * rows; ++r)
                if (std::isinf(finite.at(r, c)))
                    finite.at(r, c) = 0.5f;
        Matrix want_finite = finite;
        referenceApplyRange(want_finite.raw().data(), finite.size(), bits);

        const Quantizer q(bits);
        std::vector<SimdLevel> levels = {SimdLevel::Scalar};
        if (cpuSupportsAvx2())
            levels.push_back(SimdLevel::Avx2);
        for (const SimdLevel level : levels) {
            const ScopedSimdLevel scoped(level);
            Matrix got = m;
            for (std::size_t l = 0; l < 3; ++l)
                q.applyRows(got, l * rows, (l + 1) * rows);
            Matrix got_whole = m;
            q.apply(got_whole);
            Matrix got_finite = finite;
            q.apply(got_finite);
            for (std::size_t i = 0; i < m.size(); ++i) {
                ASSERT_TRUE(sameBits(got.raw()[i], want.raw()[i]))
                    << "applyRows bits=" << bits << " level="
                    << simdLevelName(level) << " i=" << i;
                ASSERT_TRUE(sameBits(got_whole.raw()[i],
                                     want_whole.raw()[i]))
                    << "apply bits=" << bits << " i=" << i;
                ASSERT_TRUE(sameBits(got_finite.raw()[i],
                                     want_finite.raw()[i]))
                    << "apply (finite) bits=" << bits << " i=" << i;
            }
        }

        // Values past the top and bottom levels at a fixed scale.
        for (const float v : {3.0f * max_level, -3.0f * max_level,
                              max_level + 0.5f, -max_level - 1.5f, kInf,
                              -kInf, kNan, -0.0f, 2.5f, -2.5f}) {
            EXPECT_TRUE(sameBits(q.apply(v, 1.0f),
                                 referenceApply(v, 1.0f, max_level)))
                << "bits=" << bits << " v=" << v;
        }
    }
}

TEST(Quantizer, RejectsSillyWidths)
{
    EXPECT_DEATH(Quantizer(1), "unsupported");
    EXPECT_DEATH(Quantizer(33), "unsupported");
}

class QuantBitsTest : public ::testing::TestWithParam<int>
{};

TEST_P(QuantBitsTest, ErrorBoundedByHalfStep)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(16, 16, 2, 1.0);
    const Matrix orig = m;
    const float scale = q.scaleFor(m.absMax());
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(std::fabs(m.raw()[i] - orig.raw()[i]),
                  scale * 0.5f + 1e-6f)
            << "bits=" << bits << " idx=" << i;
    }
}

TEST_P(QuantBitsTest, Idempotent)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(8, 8, 3);
    q.apply(m);
    Matrix once = m;
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_NEAR(m.raw()[i], once.raw()[i], 1e-6f);
}

TEST_P(QuantBitsTest, LevelCountBounded)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(32, 32, 4);
    q.apply(m);
    std::set<float> levels(m.raw().begin(), m.raw().end());
    EXPECT_LE(levels.size(), static_cast<std::size_t>(1) << bits);
}

TEST_P(QuantBitsTest, PreservesAbsMaxElement)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(8, 8, 5);
    const float abs_max = m.absMax();
    q.apply(m);
    EXPECT_NEAR(m.absMax(), abs_max, q.scaleFor(abs_max) * 0.5f + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantBitsTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(Quantizer, MonotoneOnValues)
{
    const Quantizer q(4);
    const float scale = q.scaleFor(1.0f);
    float prev = -2.0f;
    for (float x = -1.0f; x <= 1.0f; x += 0.01f) {
        const float qx = q.apply(x, scale);
        EXPECT_GE(qx, prev - 1e-6f);
        prev = qx;
    }
}

TEST(Quantizer, ClampsBeyondScale)
{
    const Quantizer q(4);
    const float scale = q.scaleFor(1.0f);
    EXPECT_LE(q.apply(5.0f, scale), 1.0f + 1e-6f);
    EXPECT_GE(q.apply(-5.0f, scale), -1.0f - scale - 1e-6f);
}

TEST(Quantizer, VectorOverloadMatchesMatrix)
{
    const Quantizer q(8);
    std::vector<float> v = {0.1f, -0.7f, 0.33f, 1.0f};
    Matrix m(1, 4, std::vector<float>(v));
    q.apply(v);
    q.apply(m);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_FLOAT_EQ(v[i], m.raw()[i]);
}

TEST(QuantConfig, NamesMatchPaperStyle)
{
    EXPECT_EQ((QuantConfig{32, 32}).name(), "DFP 32-32");
    EXPECT_EQ((QuantConfig{16, 16}).name(), "FPP 16-16");
    EXPECT_EQ((QuantConfig{8, 4}).name(), "FPP 8-4");
}

TEST(QuantConfig, Table3SweepHasSevenEntries)
{
    const auto sweep = QuantConfig::table3Sweep();
    ASSERT_EQ(sweep.size(), 7u);
    EXPECT_TRUE(sweep.front().isFloatBaseline());
    EXPECT_EQ(sweep.back().name(), "FPP 4-2");
}

TEST(QuantConfig, DeploymentIsSixteenBit)
{
    const auto d = QuantConfig::deployment();
    EXPECT_EQ(d.weightBits, 16);
    EXPECT_EQ(d.activationBits, 16);
}

TEST(Quantizer, RailSaturationAtEveryWidth)
{
    // Values far past the representable range must pin to the rails, at
    // the int8-style widths and the 16-bit deployment width alike.
    for (const int bits : {8, 16}) {
        const Quantizer q(bits);
        const float scale = q.scaleFor(1.0f);
        const float hi = q.apply(1e9f, scale);
        const float lo = q.apply(-1e9f, scale);
        EXPECT_LE(hi, 1.0f + 1e-6f) << "bits=" << bits;
        EXPECT_GE(lo, -1.0f - scale - 1e-6f) << "bits=" << bits;
        // Saturation is a fixed point: the rail quantizes to itself.
        EXPECT_FLOAT_EQ(q.apply(hi, scale), hi);
        EXPECT_FLOAT_EQ(q.apply(lo, scale), lo);
    }
}

TEST(Quantizer, ZeroDynamicRangeColumnsQuantizeToZero)
{
    // An all-zero tensor has absMax 0; scaleFor(0) must not divide by
    // zero and apply() must return exact zeros.
    const Quantizer q(8);
    Matrix m(4, 3);
    m.fill(0.0f);
    const float scale = q.scaleFor(m.absMax());
    q.apply(m);
    for (float v : m.raw())
        EXPECT_EQ(v, 0.0f) << "scale=" << scale;
}

TEST(Int8Kernel, QuantizeSaturatesAtRails)
{
    EXPECT_EQ(quantizeInt8(1e9f, 1.0f), 127);
    EXPECT_EQ(quantizeInt8(-1e9f, 1.0f), -127);
    EXPECT_EQ(quantizeInt8(127.4f, 1.0f), 127);
    EXPECT_EQ(quantizeInt8(-127.4f, 1.0f), -127);
    // Zero/negative scale is the zero-dynamic-range sentinel.
    EXPECT_EQ(quantizeInt8(5.0f, 0.0f), 0);
}

TEST(Int8Kernel, RoundsHalfToEven)
{
    // quantizeInt8 uses nearbyint under the default rounding mode:
    // ties go to the even integer, matching the ADC model's convert.
    EXPECT_EQ(quantizeInt8(0.5f, 1.0f), 0);
    EXPECT_EQ(quantizeInt8(1.5f, 1.0f), 2);
    EXPECT_EQ(quantizeInt8(2.5f, 1.0f), 2);
    EXPECT_EQ(quantizeInt8(-0.5f, 1.0f), 0);
    EXPECT_EQ(quantizeInt8(-1.5f, 1.0f), -2);
}

TEST(Int8Kernel, TensorRowScalesBoundRoundTripError)
{
    const Matrix w = randomMatrix(6, 40, 7, 1.0);
    const Int8Tensor wq = Int8Tensor::fromMatrix(w);
    ASSERT_EQ(wq.rows, 6u);
    ASSERT_EQ(wq.cols, 40u);
    ASSERT_EQ(wq.stride % 32, 0u);
    for (std::size_t r = 0; r < wq.rows; ++r) {
        const float scale = wq.rowScale[r];
        ASSERT_GT(scale, 0.0f);
        for (std::size_t c = 0; c < wq.cols; ++c) {
            const float back = wq.data[r * wq.stride + c] * scale;
            // Dequantized value within half a step of the original.
            EXPECT_LE(std::fabs(back - w.at(r, c)), scale * 0.5f + 1e-6f)
                << "r=" << r << " c=" << c;
        }
        // Padding lanes beyond cols stay zero so dot products ignore them.
        for (std::size_t c = wq.cols; c < wq.stride; ++c)
            EXPECT_EQ(wq.data[r * wq.stride + c], 0);
    }
}

TEST(Int8Kernel, ZeroRowsGetZeroScaleAndZeroCodes)
{
    Matrix w(2, 8);
    w.fill(0.0f);
    w.at(1, 3) = 0.25f;
    const Int8Tensor wq = Int8Tensor::fromMatrix(w);
    EXPECT_EQ(wq.rowScale[0], 0.0f);
    for (std::size_t c = 0; c < wq.stride; ++c)
        EXPECT_EQ(wq.data[c], 0);
    EXPECT_GT(wq.rowScale[1], 0.0f);
    EXPECT_EQ(wq.data[1 * wq.stride + 3], 127);
}

TEST(Int8Kernel, QuantizeRowsSharesOneScaleAcrossTheSpan)
{
    const Matrix x = randomMatrix(5, 12, 9, 1.0);
    Int8Vec out;
    const float scale = quantizeRowsInt8(x, 1, 4, out);
    ASSERT_GT(scale, 0.0f);
    const std::size_t stride = int8Stride(12);
    ASSERT_EQ(out.size(), 3 * stride);
    float span_max = 0.0f;
    for (std::size_t r = 1; r < 4; ++r)
        for (std::size_t c = 0; c < 12; ++c)
            span_max = std::max(span_max, std::fabs(x.at(r, c)));
    EXPECT_FLOAT_EQ(scale, span_max / 127.0f);
    for (std::size_t r = 1; r < 4; ++r)
        for (std::size_t c = 0; c < 12; ++c)
            EXPECT_EQ(out[(r - 1) * stride + c],
                      quantizeInt8(x.at(r, c), scale));
}
