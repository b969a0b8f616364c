/**
 * @file
 * Deterministic random number generation for Swordfish.
 *
 * Every stochastic component in the framework (signal simulation, device
 * variation, measurement-library sampling, training shuffles) draws from an
 * explicitly seeded Rng so that experiments are exactly reproducible. The
 * generator is xoshiro256** seeded via splitmix64, which is fast, has a
 * 2^256-1 period, and passes BigCrush.
 */

#ifndef SWORDFISH_UTIL_RNG_H
#define SWORDFISH_UTIL_RNG_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace swordfish {

/** Stateless splitmix64 step; used for seeding and hashing. */
constexpr std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Mix an arbitrary set of integers into a single 64-bit seed. */
inline std::uint64_t
hashSeed(std::initializer_list<std::uint64_t> parts)
{
    std::uint64_t state = 0x853c49e6748fea9bULL;
    std::uint64_t out = 0;
    for (std::uint64_t p : parts) {
        state ^= p + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
        out ^= splitmix64(state);
    }
    return out;
}

/**
 * Layer tables of the 128-layer standard-normal ziggurat (Marsaglia &
 * Tsang 2000, in Doornik's 2005 ZIGNOR form). Layer 0 is the base strip
 * plus the tail beyond kR; layers 1..127 are rectangles of equal area kV
 * under exp(-x^2/2), with right edges x[1] = kR > x[2] > ... > x[128] = 0.
 */
struct ZigguratTables
{
    static constexpr int kLayers = 128;
    static constexpr double kR = 3.442619855899;     ///< start of the tail
    static constexpr double kV = 9.91256303526217e-3; ///< area per layer

    double x[kLayers + 1];  ///< layer right edges; x[0] = kV / f(kR)
    double ratio[kLayers];  ///< x[i + 1] / x[i]: inner-rectangle bound

    ZigguratTables()
    {
        double f = std::exp(-0.5 * kR * kR);
        x[0] = kV / f;
        x[1] = kR;
        x[kLayers] = 0.0;
        for (int i = 2; i < kLayers; ++i) {
            x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + f));
            f = std::exp(-0.5 * x[i] * x[i]);
        }
        for (int i = 0; i < kLayers; ++i)
            ratio[i] = x[i + 1] / x[i];
    }
};

/** The shared ziggurat tables, built once on first use. */
inline const ZigguratTables&
zigguratTables()
{
    static const ZigguratTables tables;
    return tables;
}

/**
 * Seedable xoshiro256** random number generator with the distributions the
 * framework needs (uniform, Gaussian, lognormal, integer ranges, shuffles).
 *
 * Satisfies UniformRandomBitGenerator so it can also feed <random>
 * distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded through splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5eedf15eULL)
    {
        reseed(seed);
    }

    /** Re-seed the generator in place. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto& word : state_)
            word = splitmix64(sm);
        hasCachedGauss_ = false;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit output. */
    result_type
    operator()()
    {
        return step(state_[0], state_[1], state_[2], state_[3]);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    next(std::uint64_t n)
    {
        // Lemire's nearly-divisionless bounded sampling.
        std::uint64_t x = operator()();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            std::uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = operator()();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            next(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Standard normal via Box-Muller with one-value cache. */
    double
    gauss()
    {
        if (hasCachedGauss_) {
            hasCachedGauss_ = false;
            return cachedGauss_;
        }
        double u1 = 0.0;
        while (u1 <= 0.0)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cachedGauss_ = r * std::sin(theta);
        hasCachedGauss_ = true;
        return r * std::cos(theta);
    }

    /**
     * Standard normal by the ziggurat method. One 64-bit draw picks the
     * layer (low 7 bits) and a signed uniform (high 53 bits); about 97%
     * of samples return from the inner-rectangle test with no further
     * draws. Keeps no cache, so a sequence of samples depends only on the
     * stream, never on how the calls are grouped.
     */
    double
    gaussZiggurat()
    {
        double z = 0.0;
        gaussZigguratFill(&z, 1);
        return z;
    }

    /**
     * n ziggurat samples into out: bitwise the values, and the stream
     * position after, of n gaussZiggurat() calls. The generator state
     * lives in locals while the inner-rectangle test accepts; a rejected
     * draw writes it back and finishes the sample out of line, so the
     * wedge's and tail's libm calls do not force the state through memory
     * on every draw.
     */
    void
    gaussZigguratFill(double* out, std::size_t n)
    {
        const ZigguratTables& t = zigguratTables();
        std::uint64_t s0 = state_[0], s1 = state_[1];
        std::uint64_t s2 = state_[2], s3 = state_[3];
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint64_t bits = step(s0, s1, s2, s3);
            if (zigguratInner(t, bits, out[k]))
                continue;
            state_[0] = s0, state_[1] = s1, state_[2] = s2, state_[3] = s3;
            out[k] = gaussZigguratReject(bits);
            s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
        }
        state_[0] = s0, state_[1] = s1, state_[2] = s2, state_[3] = s3;
    }

    /** Normal with given mean and standard deviation. */
    double
    gauss(double mean, double stddev)
    {
        return mean + stddev * gauss();
    }

    /** Lognormal: exp(N(mu, sigma)). */
    double
    logNormal(double mu, double sigma)
    {
        return std::exp(gauss(mu, sigma));
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = next(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng
    split()
    {
        return Rng(operator()() ^ 0xa02bdbf7bb3c0a7ULL);
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** One xoshiro256** step on the state words s0..s3. */
    static std::uint64_t
    step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
         std::uint64_t& s3)
    {
        const std::uint64_t result = rotl(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        return result;
    }

    /** Layer index (low 7 bits) of a ziggurat draw. */
    static std::size_t
    zigguratLayer(std::uint64_t bits)
    {
        return bits & (ZigguratTables::kLayers - 1);
    }

    /** Signed uniform in [-1, 1) from a draw's high 53 bits. */
    static double
    zigguratUniform(std::uint64_t bits)
    {
        return static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    }

    /**
     * The inner-rectangle test of a draw: stores u * x[i] in z and returns
     * true when that is the sample, with no further draws.
     */
    static bool
    zigguratInner(const ZigguratTables& t, std::uint64_t bits, double& z)
    {
        const std::size_t i = zigguratLayer(bits);
        const double u = zigguratUniform(bits);
        z = u * t.x[i];
        return std::fabs(u) < t.ratio[i];
    }

    /**
     * Finish a ziggurat sample whose draw `bits` failed the inner-rectangle
     * test: the tail for layer 0, else the wedge test, and on a wedge
     * rejection fresh draws until one is accepted.
     */
    [[gnu::noinline]] double
    gaussZigguratReject(std::uint64_t bits)
    {
        const ZigguratTables& t = zigguratTables();
        for (;;) {
            const std::size_t i = zigguratLayer(bits);
            const double u = zigguratUniform(bits);
            if (i == 0)
                return gaussZigguratTail(u < 0.0);
            // Wedge: accept x when a uniform height in the layer's band
            // [f(x[i]), f(x[i+1])] falls under f(x); both sides are
            // divided by f(x).
            const double x = u * t.x[i];
            const double f0 = std::exp(-0.5 * (t.x[i] * t.x[i] - x * x));
            const double f1 =
                std::exp(-0.5 * (t.x[i + 1] * t.x[i + 1] - x * x));
            if (f0 + (f1 - f0) * uniform() < 1.0)
                return x;
            bits = operator()();
            double z = 0.0;
            if (zigguratInner(t, bits, z))
                return z;
        }
    }

    /** Marsaglia's exact sampler of the normal tail beyond kR. */
    double
    gaussZigguratTail(bool negative)
    {
        constexpr double r = ZigguratTables::kR;
        double x = 0.0;
        double y = 0.0;
        do {
            // 1 - uniform() lies in (0, 1], so the logs stay finite.
            x = -std::log(1.0 - uniform()) / r;
            y = -std::log(1.0 - uniform());
        } while (y + y < x * x);
        return negative ? -(r + x) : r + x;
    }

    std::uint64_t state_[4] = {};
    bool hasCachedGauss_ = false;
    double cachedGauss_ = 0.0;
};

} // namespace swordfish

#endif // SWORDFISH_UTIL_RNG_H
