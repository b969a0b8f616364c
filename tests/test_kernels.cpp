/**
 * @file
 * Tests for the SIMD kernel layer: runtime dispatch, the bitwise
 * scalar==AVX2 contract of every vectorized kernel, the int8 matmul, and
 * the aligned Matrix storage the kernels rely on.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"
#include "tensor/simd.h"
#include "test_util.h"

using namespace swordfish;
using swordfish::testing::randomMatrix;

namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/** Run fn at both SIMD levels; skip the AVX2 leg on unsupported hosts. */
template <typename F>
void
forBothLevels(F&& fn)
{
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        fn(SimdLevel::Scalar);
    }
    if (cpuSupportsAvx2()) {
        const ScopedSimdLevel scoped(SimdLevel::Avx2);
        fn(SimdLevel::Avx2);
    }
}

/** Bit-level equality: distinguishes -0.0f from 0.0f and matches NaNs. */
bool
sameBits(float a, float b)
{
    std::uint32_t ua, ub;
    std::memcpy(&ua, &a, 4);
    std::memcpy(&ub, &b, 4);
    return ua == ub;
}

} // namespace

TEST(SimdConfig, ParsesKnownLevels)
{
    SimdConfig cfg;
    std::string err;
    EXPECT_TRUE(SimdConfig::parse("", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Auto);
    EXPECT_TRUE(SimdConfig::parse("auto", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Auto);
    EXPECT_TRUE(SimdConfig::parse("scalar", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Scalar);
    EXPECT_TRUE(SimdConfig::parse("avx2", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Avx2);
    // Case and surrounding whitespace are forgiven, like the other knobs.
    EXPECT_TRUE(SimdConfig::parse("  AVX2 ", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Avx2);
}

TEST(SimdConfig, RejectsUnknownSpecWithTypedError)
{
    SimdConfig cfg;
    std::string err;
    EXPECT_FALSE(SimdConfig::parse("sse9", cfg, err));
    EXPECT_NE(err.find("unrecognized SIMD level"), std::string::npos) << err;
    EXPECT_NE(err.find("sse9"), std::string::npos) << err;
}

TEST(SimdDispatch, ScopedOverrideAppliesAndRestores)
{
    const SimdLevel ambient = activeSimdLevel();
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        EXPECT_EQ(activeSimdLevel(), SimdLevel::Scalar);
        if (cpuSupportsAvx2()) {
            const ScopedSimdLevel inner(SimdLevel::Avx2);
            EXPECT_EQ(activeSimdLevel(), SimdLevel::Avx2);
        }
        EXPECT_EQ(activeSimdLevel(), SimdLevel::Scalar);
    }
    EXPECT_EQ(activeSimdLevel(), ambient);
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
}

TEST(MatrixAlignment, StorageIsCacheLineAligned)
{
    for (const std::size_t cols : {1u, 5u, 8u, 31u, 257u}) {
        Matrix m(3, cols);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.raw().data())
                      % kMatrixAlignment,
                  0u)
            << "cols=" << cols;
        m.resize(7, cols + 1);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.raw().data())
                      % kMatrixAlignment,
                  0u);
    }
}

TEST(KernelDot, ScalarAndAvx2AreBitwiseIdentical)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    // Cover every tail residue and the short (<8) path.
    for (std::size_t k = 1; k <= 40; ++k) {
        const Matrix a = randomMatrix(1, k, k * 7 + 1, 2.0);
        const Matrix b = randomMatrix(1, k, k * 7 + 2, 2.0);
        float r_scalar, r_avx2;
        {
            const ScopedSimdLevel scoped(SimdLevel::Scalar);
            r_scalar = kernels::dotBlocked(a.rowPtr(0), b.rowPtr(0), k);
        }
        {
            const ScopedSimdLevel scoped(SimdLevel::Avx2);
            r_avx2 = kernels::dotBlocked(a.rowPtr(0), b.rowPtr(0), k);
        }
        EXPECT_TRUE(sameBits(r_scalar, r_avx2)) << "k=" << k;
    }
}

TEST(KernelDot, MatchesDoubleReference)
{
    const Matrix a = randomMatrix(1, 123, 5);
    const Matrix b = randomMatrix(1, 123, 6);
    double ref = 0.0;
    for (std::size_t i = 0; i < 123; ++i)
        ref += static_cast<double>(a.raw()[i]) * b.raw()[i];
    const float got = kernels::dotBlocked(a.rowPtr(0), b.rowPtr(0), 123);
    EXPECT_NEAR(got, ref, 1e-4 * std::max(1.0, std::fabs(ref)));
}

TEST(KernelGemmBT, ScalarAndAvx2AreBitwiseIdentical)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
    // Ragged inner dims and output widths exercise the 8-output blocking,
    // its remainder, and the reduction tail together; the cross product
    // adds the crossbar tiles' VMM shapes.
    std::vector<Shape> shapes = {{3, 17, 9}, {5, 32, 4}, {1, 7, 11},
                                 {8, 65, 13}};
    for (const std::size_t m : {1u, 8u, 13u})
        for (const std::size_t k : {7u, 32u, 64u, 65u})
            for (const std::size_t n : {8u, 16u, 64u, 67u})
                shapes.emplace_back(m, k, n);
    for (const auto& [m, k, n] : shapes) {
        const Matrix a = randomMatrix(m, k, 31 + k, 1.0);
        const Matrix b = randomMatrix(n, k, 32 + n, 1.0);
        const Matrix base = randomMatrix(m, n, 33 + m, 1.0);
        for (const bool accumulate : {false, true}) {
            Matrix y_scalar = base, y_avx2 = base;
            {
                const ScopedSimdLevel scoped(SimdLevel::Scalar);
                kernels::gemmBT(a, b, y_scalar, accumulate);
            }
            {
                const ScopedSimdLevel scoped(SimdLevel::Avx2);
                kernels::gemmBT(a, b, y_avx2, accumulate);
            }
            ASSERT_EQ(y_scalar.rows(), m);
            ASSERT_EQ(y_scalar.cols(), n);
            for (std::size_t i = 0; i < y_scalar.size(); ++i)
                ASSERT_TRUE(sameBits(y_scalar.raw()[i], y_avx2.raw()[i]))
                    << "m=" << m << " k=" << k << " n=" << n
                    << " accumulate=" << accumulate << " i=" << i;
        }
    }
}

TEST(KernelGemmBT, AccumulateAddsOntoExistingOutput)
{
    const Matrix a = randomMatrix(4, 12, 41);
    const Matrix b = randomMatrix(6, 12, 42);
    Matrix base = randomMatrix(4, 6, 43);
    Matrix y = base;
    kernels::gemmBT(a, b, y, true);
    Matrix fresh;
    kernels::gemmBT(a, b, fresh, false);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.raw()[i], base.raw()[i] + fresh.raw()[i]);
}

TEST(KernelActivations, ApproxMatchesLibmClosely)
{
    for (float x = -20.0f; x <= 20.0f; x += 0.0637f) {
        const double ref_exp = std::exp(static_cast<double>(x));
        const float e = kernels::expApproxf(x);
        EXPECT_NEAR(e, ref_exp, 2e-6 * std::max(1.0, ref_exp)) << "x=" << x;
        const float s = kernels::sigmoidApproxf(x);
        EXPECT_NEAR(s, 1.0 / (1.0 + std::exp(-static_cast<double>(x))),
                    2e-6)
            << "x=" << x;
        // Strictly positive even deep in the negative tail; the positive
        // tail saturates to exactly 1.0f, which IS the nearest float.
        EXPECT_GT(s, 0.0f);
        EXPECT_LE(s, 1.0f);
        const float t = kernels::tanhApproxf(x);
        EXPECT_NEAR(t, std::tanh(x), 4e-6) << "x=" << x;
        EXPECT_GE(t, -1.0f);
        EXPECT_LE(t, 1.0f);
    }
    // Exact fixed points and symmetry.
    EXPECT_EQ(kernels::tanhApproxf(0.0f), 0.0f);
    EXPECT_EQ(kernels::expApproxf(0.0f), 1.0f);
    EXPECT_EQ(kernels::sigmoidApproxf(0.0f), 0.5f);
    EXPECT_NEAR(kernels::sigmoidApproxf(8.0f),
                1.0f - kernels::sigmoidApproxf(-8.0f), 1e-7f);
    EXPECT_EQ(kernels::tanhApproxf(3.0f), -kernels::tanhApproxf(-3.0f));
}

TEST(KernelLstmGate, ScalarAndAvx2AreBitwiseIdentical)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    for (const std::size_t hidden : {1u, 3u, 8u, 13u, 24u, 40u}) {
        const Matrix zi = randomMatrix(1, 4 * hidden, hidden + 51, 1.5);
        const Matrix zr = randomMatrix(1, 4 * hidden, hidden + 52, 1.5);
        const Matrix b = randomMatrix(1, 4 * hidden, hidden + 53, 1.5);
        const Matrix c_prev = randomMatrix(1, hidden, hidden + 54);
        std::vector<std::vector<float>> out(2);
        for (int lvl = 0; lvl < 2; ++lvl) {
            const ScopedSimdLevel scoped(static_cast<SimdLevel>(lvl));
            std::vector<float> c(hidden), tc(hidden), h(hidden),
                gates(4 * hidden);
            kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0),
                                   hidden, c_prev.rowPtr(0), c.data(),
                                   tc.data(), h.data(), gates.data());
            auto& flat = out[lvl];
            flat.insert(flat.end(), c.begin(), c.end());
            flat.insert(flat.end(), tc.begin(), tc.end());
            flat.insert(flat.end(), h.begin(), h.end());
            flat.insert(flat.end(), gates.begin(), gates.end());
        }
        for (std::size_t i = 0; i < out[0].size(); ++i)
            ASSERT_TRUE(sameBits(out[0][i], out[1][i]))
                << "hidden=" << hidden << " i=" << i;
    }
}

TEST(KernelLstmGate, InPlaceCellUpdateMatchesOutOfPlace)
{
    const std::size_t hidden = 19;
    const Matrix zi = randomMatrix(1, 4 * hidden, 61);
    const Matrix zr = randomMatrix(1, 4 * hidden, 62);
    const Matrix b = randomMatrix(1, 4 * hidden, 63);
    const Matrix c0 = randomMatrix(1, hidden, 64);
    std::vector<float> c_sep(hidden), h_sep(hidden);
    kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0), hidden,
                           c0.rowPtr(0), c_sep.data(), nullptr,
                           h_sep.data(), nullptr);
    std::vector<float> c_alias(c0.rowPtr(0), c0.rowPtr(0) + hidden);
    std::vector<float> h_alias(hidden);
    kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0), hidden,
                           c_alias.data(), c_alias.data(), nullptr,
                           h_alias.data(), nullptr);
    for (std::size_t j = 0; j < hidden; ++j) {
        EXPECT_TRUE(sameBits(c_sep[j], c_alias[j])) << j;
        EXPECT_TRUE(sameBits(h_sep[j], h_alias[j])) << j;
    }
}

TEST(KernelArgmax, MatchesNaiveFirstMaxScan)
{
    for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 31u, 64u, 100u}) {
        const Matrix row = randomMatrix(1, n, n + 71);
        std::size_t naive = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (row.raw()[i] > row.raw()[naive])
                naive = i;
        forBothLevels([&](SimdLevel level) {
            EXPECT_EQ(kernels::argmaxRow(row.rowPtr(0), n), naive)
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

TEST(KernelArgmax, TiesResolveToLowestIndexAtBothLevels)
{
    std::vector<float> v(24, 0.25f);
    v[5] = 1.0f;
    v[13] = 1.0f; // same stripe family as 5 mod 8
    v[21] = 1.0f;
    Matrix row(1, v.size(), std::vector<float>(v));
    forBothLevels([&](SimdLevel) {
        EXPECT_EQ(kernels::argmaxRow(row.rowPtr(0), row.cols()), 5u);
    });
}

TEST(KernelArgmax, NanRowsAgreeAcrossLevels)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    // NaN-poisoned rows have no universally "right" answer; the contract
    // is only that both levels agree bitwise.
    for (std::size_t pos = 0; pos < 20; ++pos) {
        Matrix row = randomMatrix(1, 20, pos + 81);
        row.raw()[pos] = kNan;
        std::size_t r[2];
        for (int lvl = 0; lvl < 2; ++lvl) {
            const ScopedSimdLevel scoped(static_cast<SimdLevel>(lvl));
            r[lvl] = kernels::argmaxRow(row.rowPtr(0), 20);
        }
        EXPECT_EQ(r[0], r[1]) << "NaN at " << pos;
    }
}

TEST(KernelRowMax, MatchesMaxElementAndAgreesAcrossLevels)
{
    for (const std::size_t n : {1u, 4u, 8u, 9u, 26u, 130u}) {
        const Matrix row = randomMatrix(1, n, n + 91);
        float expect = row.raw()[0];
        for (std::size_t i = 1; i < n; ++i)
            expect = std::max(expect, row.raw()[i]);
        forBothLevels([&](SimdLevel level) {
            EXPECT_TRUE(sameBits(kernels::rowMax(row.rowPtr(0), n), expect))
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

TEST(KernelAbsMax, MatchesSequentialScan)
{
    EXPECT_EQ(kernels::absMaxRange(nullptr, 0), 0.0f);
    for (const std::size_t n : {1u, 5u, 8u, 17u, 64u, 333u}) {
        const Matrix v = randomMatrix(1, n, n + 101, 3.0);
        float expect = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            expect = std::max(expect, std::fabs(v.raw()[i]));
        forBothLevels([&](SimdLevel level) {
            EXPECT_TRUE(
                sameBits(kernels::absMaxRange(v.rowPtr(0), n), expect))
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

TEST(KernelInt8, MatmulMatchesNaiveIntegerReference)
{
    const std::size_t m = 5, k = 37, n = 11;
    const Matrix x = randomMatrix(m, k, 111);
    const Matrix w = randomMatrix(n, k, 112);
    const Int8Tensor wq = Int8Tensor::fromMatrix(w);
    Int8Vec xq;
    const float x_scale = quantizeRowsInt8(x, 0, m, xq);
    ASSERT_GT(x_scale, 0.0f);

    Matrix y(m, n);
    kernels::int8Matmul(xq.data(), m, x_scale, wq, y, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t o = 0; o < n; ++o) {
            std::int32_t acc = 0;
            for (std::size_t j = 0; j < wq.stride; ++j)
                acc += static_cast<std::int32_t>(xq[i * wq.stride + j])
                    * wq.data[o * wq.stride + j];
            const float expect = static_cast<float>(acc)
                * (x_scale * wq.rowScale[o]);
            EXPECT_TRUE(sameBits(y.at(i, o), expect))
                << "i=" << i << " o=" << o;
        }
    }
}

TEST(KernelInt8, ScalarAndAvx2AreBitwiseIdentical)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    const std::size_t m = 7, k = 61, n = 9;
    const Matrix x = randomMatrix(m, k, 121);
    const Matrix w = randomMatrix(n, k, 122);
    const Int8Tensor wq = Int8Tensor::fromMatrix(w);
    Int8Vec xq;
    const float x_scale = quantizeRowsInt8(x, 0, m, xq);
    Matrix y0(m, n), y1(m, n);
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        kernels::int8Matmul(xq.data(), m, x_scale, wq, y0, 0);
    }
    {
        const ScopedSimdLevel scoped(SimdLevel::Avx2);
        kernels::int8Matmul(xq.data(), m, x_scale, wq, y1, 0);
    }
    for (std::size_t i = 0; i < y0.size(); ++i)
        ASSERT_TRUE(sameBits(y0.raw()[i], y1.raw()[i])) << i;
}

TEST(KernelInt8, RowOffsetWritesIntoTallerOutput)
{
    const std::size_t m = 3, k = 16, n = 6;
    const Matrix x = randomMatrix(m, k, 131);
    const Matrix w = randomMatrix(n, k, 132);
    const Int8Tensor wq = Int8Tensor::fromMatrix(w);
    Int8Vec xq;
    const float x_scale = quantizeRowsInt8(x, 0, m, xq);
    Matrix whole(m, n);
    kernels::int8Matmul(xq.data(), m, x_scale, wq, whole, 0);
    Matrix tall(m + 2, n);
    tall.fill(-7.0f);
    kernels::int8Matmul(xq.data(), m, x_scale, wq, tall, 2);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t o = 0; o < n; ++o)
            EXPECT_TRUE(sameBits(tall.at(i + 2, o), whole.at(i, o)));
    for (std::size_t o = 0; o < n; ++o)
        EXPECT_EQ(tall.at(0, o), -7.0f);
}

TEST(KernelPeak, PeakProbeReportsConsistentFlopCount)
{
    const double scalar_flops = kernels::peakFmaFlops(1000, false);
    EXPECT_EQ(scalar_flops, 1000.0 * 8 * 2);
    if (cpuSupportsAvx2()) {
        const double avx2_flops = kernels::peakFmaFlops(1000, true);
        EXPECT_EQ(avx2_flops, 1000.0 * 8 * 2 * 8);
    }
}
