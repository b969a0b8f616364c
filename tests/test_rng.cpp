/** @file Tests for the deterministic RNG. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

using namespace swordfish;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const auto first = a();
    a.reseed(7);
    EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NextBoundedIsInRange)
{
    Rng rng(6);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next(17), 17u);
}

TEST(Rng, NextCoversAllValues)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.next(10));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(8);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextOneAlwaysZero)
{
    Rng rng(20);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.next(1), 0u);
}

TEST(Rng, RangeDegenerateAtIntExtremes)
{
    Rng rng(21);
    EXPECT_EQ(rng.range(0, 0), 0);
    EXPECT_EQ(rng.range(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::min()),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(rng.range(std::numeric_limits<std::int64_t>::max(),
                        std::numeric_limits<std::int64_t>::max()),
              std::numeric_limits<std::int64_t>::max());
}

TEST(Rng, RangeWindowsNearIntExtremes)
{
    Rng rng(22);
    const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    for (int i = 0; i < 1000; ++i) {
        const auto top = rng.range(hi - 3, hi);
        EXPECT_GE(top, hi - 3);
        EXPECT_LE(top, hi);
        const auto bottom = rng.range(lo, lo + 3);
        EXPECT_GE(bottom, lo);
        EXPECT_LE(bottom, lo + 3);
    }
}

TEST(Rng, GaussCacheClearedByReseed)
{
    // Box-Muller caches one value per pair; a reseed must drop it so the
    // stream restarts exactly, not one stale sample later.
    Rng a(23);
    a.gauss(); // leaves the second Box-Muller value cached
    a.reseed(23);
    Rng fresh(23);
    EXPECT_EQ(a.gauss(), fresh.gauss());
    EXPECT_EQ(a.gauss(), fresh.gauss());
}

TEST(Rng, GaussMomentsMatch)
{
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gauss();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussScaledMoments)
{
    Rng rng(10);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gauss(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

namespace {

/** Standard normal CDF. */
double
phi(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

} // namespace

TEST(Ziggurat, TablesBuiltOnceWithEqualLayerAreas)
{
    const ZigguratTables& t = zigguratTables();
    EXPECT_EQ(&t, &zigguratTables());
    EXPECT_EQ(t.x[1], ZigguratTables::kR);
    EXPECT_EQ(t.x[ZigguratTables::kLayers], 0.0);
    auto f = [](double x) { return std::exp(-0.5 * x * x); };
    // Base strip: kR * f(kR) plus the tail integral, which x[0] * f(kR)
    // stands for.
    EXPECT_NEAR(t.x[0] * f(ZigguratTables::kR), ZigguratTables::kV, 1e-15);
    for (int i = 1; i < ZigguratTables::kLayers; ++i) {
        EXPECT_LT(t.x[i + 1], t.x[i]);
        EXPECT_NEAR(t.x[i] * (f(t.x[i + 1]) - f(t.x[i])),
                    ZigguratTables::kV, 1e-9)
            << "layer " << i;
    }
}

TEST(Ziggurat, MomentsWithinSamplingError)
{
    Rng rng(2024);
    const int n = 1000000;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    long tail = 0;
    for (int i = 0; i < n; ++i) {
        const double z = rng.gaussZiggurat();
        const double z2 = z * z;
        s1 += z;
        s2 += z2;
        s3 += z2 * z;
        s4 += z2 * z2;
        tail += std::fabs(z) > ZigguratTables::kR ? 1 : 0;
    }
    const double dn = n;
    const double mean = s1 / dn;
    const double var = s2 / dn - mean * mean;
    const double m3 = s3 / dn - 3.0 * mean * s2 / dn + 2.0 * mean * mean * mean;
    const double m4 = s4 / dn - 4.0 * mean * s3 / dn
        + 6.0 * mean * mean * s2 / dn - 3.0 * mean * mean * mean * mean;
    const double skew = m3 / std::pow(var, 1.5);
    const double kurt = m4 / (var * var) - 3.0;
    // Four standard errors of each estimator under N(0, 1).
    EXPECT_NEAR(mean, 0.0, 4.0 * std::sqrt(1.0 / dn));
    EXPECT_NEAR(var, 1.0, 4.0 * std::sqrt(2.0 / dn));
    EXPECT_NEAR(skew, 0.0, 4.0 * std::sqrt(6.0 / dn));
    EXPECT_NEAR(kurt, 0.0, 4.0 * std::sqrt(24.0 / dn));

    // Mass beyond the ziggurat base comes only from the tail branch:
    // 2 * Phi(-3.4426), about 5.8e-4.
    const double p = 2.0 * phi(-ZigguratTables::kR);
    EXPECT_NEAR(p, 5.8e-4, 0.05e-4);
    EXPECT_GT(tail, 0);
    EXPECT_NEAR(static_cast<double>(tail) / dn, p,
                4.0 * std::sqrt(p * (1.0 - p) / dn));
}

TEST(Ziggurat, KolmogorovSmirnovAgainstPhi)
{
    Rng rng(77);
    const int n = 100000;
    std::vector<double> z(n);
    for (double& v : z)
        v = rng.gaussZiggurat();
    std::sort(z.begin(), z.end());
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
        const double f = phi(z[static_cast<std::size_t>(i)]);
        d = std::max({d, f - static_cast<double>(i) / n,
                      static_cast<double>(i + 1) / n - f});
    }
    // Critical value of D_n at alpha = 0.001: 1.949 / sqrt(n).
    EXPECT_LT(d, 1.949 / std::sqrt(static_cast<double>(n)));
}

TEST(Ziggurat, FirstValuesPinned)
{
    // Any change to the sampler or to how it consumes the stream moves
    // these; the ADC noise of every evaluation moves with them.
    const double expect[16] = {
        0x1.0908c85d8742p+0,   -0x1.130cc0ee910a2p+0,
        0x1.40fb6161a281cp+1,  -0x1.8caed5878a221p+0,
        0x1.4225e89f0fa29p-3,  -0x1.75216f6938cd3p+1,
        -0x1.4644da280969dp-1, -0x1.867f26523cff1p-2,
        0x1.dddb7cf97d052p-1,  0x1.7476aa3323d49p-1,
        0x1.5eb7511ad36e5p-4,  0x1.952ccfe9d093cp-1,
        0x1.68e319f09052dp-1,  -0x1.75ed5a1309236p+0,
        0x1.ba7d0bb729835p-2,  -0x1.9c32fd9fcd305p-3,
    };
    Rng rng(12345);
    for (double e : expect)
        EXPECT_DOUBLE_EQ(rng.gaussZiggurat(), e);
    EXPECT_EQ(rng(), 0xdbca067ffb2b6f34ULL);
}

TEST(Ziggurat, FillMatchesCalls)
{
    auto bits = [](double v) {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}}) {
        Rng filled(900 + n), called(900 + n);
        std::vector<double> z(n);
        filled.gaussZigguratFill(z.data(), n);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(bits(z[k]), bits(called.gaussZiggurat()))
                << "n=" << n << " k=" << k;
        EXPECT_EQ(filled(), called()) << "n=" << n;
    }

    // Over 2^20 draws in fills of 64, as the ADC takes them: every sample
    // and the final stream position agree, and both slow branches ran. A
    // sample takes the wedge or the tail exactly when its first draw fails
    // the inner-rectangle test, in layer >= 1 or layer 0.
    const ZigguratTables& t = zigguratTables();
    Rng filled(31337), called(31337);
    std::vector<double> z(64);
    long wedge = 0, tail = 0;
    for (std::size_t done = 0; done < (std::size_t{1} << 20); done += 64) {
        filled.gaussZigguratFill(z.data(), z.size());
        for (std::size_t k = 0; k < z.size(); ++k) {
            Rng probe = called;
            const std::uint64_t first = probe();
            const std::size_t layer =
                first & (ZigguratTables::kLayers - 1);
            const double u =
                static_cast<double>(first >> 11) * 0x1.0p-52 - 1.0;
            if (!(std::fabs(u) < t.ratio[layer]))
                ++(layer == 0 ? tail : wedge);
            ASSERT_EQ(bits(z[k]), bits(called.gaussZiggurat()))
                << "sample " << done + k;
        }
    }
    EXPECT_EQ(filled(), called());
    EXPECT_GT(wedge, 0);
    EXPECT_GT(tail, 0);
}

TEST(Rng, LogNormalIsPositive)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.logNormal(0.0, 0.5), 0.0);
}

TEST(Rng, LogNormalMedianNearOne)
{
    Rng rng(12);
    std::vector<double> v;
    for (int i = 0; i < 10001; ++i)
        v.push_back(rng.logNormal(0.0, 0.3));
    std::nth_element(v.begin(), v.begin() + 5000, v.end());
    EXPECT_NEAR(v[5000], 1.0, 0.05);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(14);
    std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_FALSE(std::is_sorted(v.begin(), v.end())); // overwhelmingly
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(15);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, HashSeedOrderSensitive)
{
    EXPECT_NE(hashSeed({1, 2}), hashSeed({2, 1}));
    EXPECT_EQ(hashSeed({1, 2, 3}), hashSeed({1, 2, 3}));
    EXPECT_NE(hashSeed({1}), hashSeed({1, 0}));
}
