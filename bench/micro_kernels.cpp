/**
 * @file
 * Kernel microbenchmarks (google-benchmark) plus the roofline report.
 *
 * Default mode runs the google-benchmark suite over the hot computational
 * paths — GEMM, ideal vs. non-ideal crossbar VMM (serial and batched),
 * the fused LSTM gate block, CTC loss and decode, and banded alignment.
 *
 * `--roofline` switches to a self-contained report: it measures the
 * machine's practical peak FMA throughput (scalar and AVX2) and streaming
 * bandwidth once, then times each hot kernel at both SIMD levels and emits
 * one JSON line per (kernel, level, batch) point with achieved GFLOPs and
 * the fraction of the matching ceiling — the format EXPERIMENTS.md §roofline
 * documents and CI diffs against bench/roofline_baseline.json:
 *
 *   micro_kernels --roofline [--quick] [--baseline FILE] [--out FILE]
 *
 * With --baseline, the run exits non-zero when any kernel's frac_peak drops
 * below 0.8x its baseline value (a >20% regression).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crossbar/crossbar.h"
#include "genomics/align.h"
#include "genomics/dataset.h"
#include "nn/ctc.h"
#include "tensor/kernels.h"
#include "tensor/lanes.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"
#include "tensor/simd.h"
#include "util/rng.h"

using namespace swordfish;

namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float& v : m.raw())
        v = static_cast<float>(rng.gauss(0.0, 0.5));
    return m;
}

/** Stacked batch operand: `lanes` lanes of `rows_per_lane` rows each. */
BatchLayout
uniformLayout(std::size_t lanes, std::size_t rows_per_lane)
{
    BatchLayout layout;
    for (std::size_t l = 0; l < lanes; ++l)
        layout.push_back({l, rows_per_lane});
    return layout;
}

void
BM_GemmBT(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Matrix x = randomMatrix(128, n, 1);
    const Matrix w = randomMatrix(4 * n, n, 2);
    Matrix y;
    for (auto _ : state) {
        gemmBT(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * 128 * n * 4 * n);
}
BENCHMARK(BM_GemmBT)->Arg(32)->Arg(64)->Arg(128);

/**
 * gemmBT at a crossbar tile's VMM shape: m rows of x against an n x k
 * weight slice (Args = m, k, n).
 */
void
BM_GemmBTTile(benchmark::State& state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    const Matrix x = randomMatrix(m, k, 1);
    const Matrix w = randomMatrix(n, k, 2);
    Matrix y;
    for (auto _ : state) {
        gemmBT(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(m * k * n));
}
BENCHMARK(BM_GemmBTTile)->Args({8, 32, 64});

void
BM_CrossbarVmmFast(benchmark::State& state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    crossbar::CrossbarConfig config;
    config.size = size;
    const Matrix w = randomMatrix(size, size, 3);
    const crossbar::CrossbarTile tile(
        config, w, 0.0f, crossbar::NoiseToggles::combined(), 7);
    const Matrix x = randomMatrix(128, size, 4);
    Rng rng(5);
    for (auto _ : state) {
        Matrix y = tile.vmmFast(x, rng);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_CrossbarVmmFast)->Arg(64)->Arg(256);

/**
 * Values spread over the converter's input range (and a little past its
 * rails), so every code and both clamps are exercised.
 */
std::vector<float>
converterInputs(std::size_t n, float half_range, std::uint64_t seed)
{
    std::vector<float> v(n);
    Rng rng(seed);
    for (float& x : v)
        x = static_cast<float>(rng.uniform(-1.1, 1.1)) * half_range;
    return v;
}

/**
 * Counter reporting seconds per item (conversion, draw or value), with n
 * items a call.
 */
benchmark::Counter
perConversion(std::size_t n)
{
    return benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate
            | benchmark::Counter::kInvert);
}

/** Non-ideal ADC block kernel over one tile output row (Arg = width). */
void
BM_AdcConvertBlock(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const crossbar::AdcModel adc(crossbar::AdcConfig{}, 8, 4.0);
    const std::vector<float> src = converterInputs(n, 4.0f, 9);
    std::vector<float> ys(n);
    Rng rng(10);
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), ys.begin());
        adc.convertBlock(ys.data(), n, rng);
        benchmark::DoNotOptimize(ys.data());
    }
    state.counters["s_per_conv"] = perConversion(n);
}
BENCHMARK(BM_AdcConvertBlock)->Arg(64);

/** The ADC's noise sampler alone: one ziggurat fill of Arg values. */
void
BM_ZigguratFill(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> z(n);
    Rng rng(10);
    for (auto _ : state) {
        rng.gaussZigguratFill(z.data(), n);
        benchmark::DoNotOptimize(z.data());
        benchmark::ClobberMemory();
    }
    state.counters["s_per_draw"] = perConversion(n);
}
BENCHMARK(BM_ZigguratFill)->Arg(64);

/**
 * Per-lane activation quantization of a stacked batch operand (the
 * deployment's 16-bit grid): Args = lanes, rows per lane, columns.
 */
void
BM_ActivationQuantRows(benchmark::State& state)
{
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const auto rows = static_cast<std::size_t>(state.range(1));
    const auto cols = static_cast<std::size_t>(state.range(2));
    const Quantizer q(16);
    const Matrix src = randomMatrix(lanes * rows, cols, 13);
    Matrix m = src;
    for (auto _ : state) {
        std::copy(src.raw().begin(), src.raw().end(), m.raw().begin());
        for (std::size_t l = 0; l < lanes; ++l)
            q.applyRows(m, l * rows, (l + 1) * rows);
        benchmark::DoNotOptimize(m.data());
        benchmark::ClobberMemory();
    }
    state.counters["s_per_value"] = perConversion(m.size());
}
BENCHMARK(BM_ActivationQuantRows)->Args({8, 16, 64});

/** Non-ideal DAC block kernel over one tile input row (Arg = width). */
void
BM_DacConvertBlock(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const crossbar::DacModel dac(crossbar::DacConfig{}, 11, 0.5);
    const std::vector<float> src = converterInputs(n, 1.0f, 12);
    std::vector<float> xs(n);
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), xs.begin());
        dac.convertBlock(xs.data(), n);
        benchmark::DoNotOptimize(xs.data());
    }
    state.counters["s_per_conv"] = perConversion(n);
}
BENCHMARK(BM_DacConvertBlock)->Arg(64);

/**
 * Batched multi-lane VMM per (batch size, SIMD level): the scalar-vs-AVX2
 * delta per batch. Arg 0 = lanes, arg 1 = SimdLevel int.
 */
void
BM_BatchedVmmLanes(benchmark::State& state)
{
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    constexpr std::size_t kSize = 256, kRowsPerLane = 16;
    crossbar::CrossbarConfig config;
    config.size = kSize;
    const Matrix w = randomMatrix(kSize, kSize, 3);
    const crossbar::CrossbarTile tile(
        config, w, 0.0f, crossbar::NoiseToggles::allOff(), 7);
    const Matrix x = randomMatrix(lanes * kRowsPerLane, kSize, 4);
    const BatchLayout layout = uniformLayout(lanes, kRowsPerLane);
    std::vector<Rng> rngs;
    std::vector<Rng*> rng_ptrs;
    for (std::size_t l = 0; l < lanes; ++l)
        rngs.emplace_back(100 + l);
    for (auto& r : rngs)
        rng_ptrs.push_back(&r);
    crossbar::VmmScratch scratch;
    for (auto _ : state) {
        tile.vmmFastLanes(x, layout, rng_ptrs.data(), scratch);
        benchmark::DoNotOptimize(scratch.y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(2 * lanes
                                                        * kRowsPerLane
                                                        * kSize * kSize));
}
BENCHMARK(BM_BatchedVmmLanes)
    ->Args({1, 0})->Args({1, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1});

/** Fused LSTM gate block per (batch size, SIMD level). */
void
BM_LstmGate(benchmark::State& state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    constexpr std::size_t kHidden = 256;
    const Matrix zi = randomMatrix(batch, 4 * kHidden, 11);
    const Matrix zr = randomMatrix(batch, 4 * kHidden, 12);
    const Matrix b = randomMatrix(1, 4 * kHidden, 13);
    Matrix c(batch, kHidden), h(batch, kHidden);
    for (auto _ : state) {
        for (std::size_t l = 0; l < batch; ++l)
            kernels::lstmGateBlock(zi.rowPtr(l), zr.rowPtr(l), b.rowPtr(0),
                                   kHidden, c.rowPtr(l), c.rowPtr(l),
                                   nullptr, h.rowPtr(l), nullptr);
        benchmark::DoNotOptimize(h.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(batch * kHidden));
}
BENCHMARK(BM_LstmGate)
    ->Args({1, 0})->Args({1, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1});

void
BM_CrossbarProgram(benchmark::State& state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    crossbar::CrossbarConfig config;
    config.size = size;
    const Matrix w = randomMatrix(size, size, 3);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        crossbar::CrossbarTile tile(
            config, w, 0.0f, crossbar::NoiseToggles::combined(), ++seed);
        benchmark::DoNotOptimize(tile.effectiveWeights().data());
    }
}
BENCHMARK(BM_CrossbarProgram)->Arg(64)->Arg(256);

void
BM_CtcLoss(benchmark::State& state)
{
    const Matrix logits = randomMatrix(128, 5, 6);
    std::vector<int> target;
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        target.push_back(static_cast<int>(rng.range(1, 4)));
    for (auto _ : state) {
        auto res = nn::ctcLoss(logits, target);
        benchmark::DoNotOptimize(res.loss);
    }
}
BENCHMARK(BM_CtcLoss);

void
BM_CtcGreedyDecode(benchmark::State& state)
{
    const Matrix logits = randomMatrix(2048, 5, 8);
    for (auto _ : state) {
        auto seq = nn::ctcGreedyDecode(logits);
        benchmark::DoNotOptimize(seq.data());
    }
}
BENCHMARK(BM_CtcGreedyDecode);

void
BM_BandedAlignment(benchmark::State& state)
{
    Rng rng(9);
    const auto len = static_cast<std::size_t>(state.range(0));
    genomics::Sequence a = genomics::generateGenome(len, 0.5, rng);
    genomics::Sequence b = a;
    for (std::size_t i = 0; i < b.size(); i += 37)
        b[i] = static_cast<std::uint8_t>((b[i] + 1) % 4);
    for (auto _ : state) {
        auto res = genomics::alignGlobal(a, b);
        benchmark::DoNotOptimize(res.matches);
    }
}
BENCHMARK(BM_BandedAlignment)->Arg(400)->Arg(1000);

void
BM_SquiggleSimulation(benchmark::State& state)
{
    const genomics::PoreModel pore;
    Rng rng(10);
    const genomics::Sequence seq = genomics::generateGenome(400, 0.5, rng);
    const genomics::SignalParams params;
    for (auto _ : state) {
        auto signal = pore.simulate(seq, params, rng);
        benchmark::DoNotOptimize(signal.data());
    }
}
BENCHMARK(BM_SquiggleSimulation);

// ---------------------------------------------------------------------------
// Roofline report
// ---------------------------------------------------------------------------

/** Best-of timing: repeat fn until the budget is spent, keep the minimum. */
template <typename F>
double
bestSeconds(F&& fn, double budget_s)
{
    using Clock = std::chrono::steady_clock;
    fn(); // warmup
    double best = 1e300, spent = 0.0;
    do {
        const auto t0 = Clock::now();
        fn();
        const double dt =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (dt < best)
            best = dt;
        spent += dt;
    } while (spent < budget_s);
    return best;
}

struct RooflinePoint
{
    std::string kernel;
    std::string level; ///< "scalar" / "avx2" / "mem"
    std::size_t batch = 0; ///< 0 = not batched
    double rate = 0.0;     ///< GFLOPs / GOPS / GB/s
    const char* unit = "gflops";
    double fracPeak = 0.0; ///< achieved / matching ceiling
};

struct RooflineReport
{
    std::vector<RooflinePoint> points;
    std::vector<std::string> lines;

    void
    add(RooflinePoint p)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"bench\":\"roofline\",\"kernel\":\"%s\","
                      "\"level\":\"%s\",\"batch\":%zu,\"%s\":%.4f,"
                      "\"frac_peak\":%.4f}",
                      p.kernel.c_str(), p.level.c_str(), p.batch, p.unit,
                      p.rate, p.fracPeak);
        lines.push_back(buf);
        points.push_back(std::move(p));
    }

    void
    addSpeedup(const std::string& kernel, std::size_t batch, double speedup)
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "{\"bench\":\"roofline_speedup\",\"kernel\":\"%s\","
                      "\"batch\":%zu,\"speedup\":%.3f}",
                      kernel.c_str(), batch, speedup);
        lines.push_back(buf);
    }
};

/** Pull a "key":<number> field out of a JSON line; fallback if absent. */
double
jsonNum(const std::string& line, const std::string& key, double fallback)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/** Pull a "key":"value" field out of a JSON line. */
std::string
jsonStr(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":\"";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return {};
    const auto start = pos + needle.size();
    const auto end = line.find('"', start);
    return line.substr(start, end - start);
}

int
runRoofline(bool quick, const std::string& baseline_path,
            const std::string& out_path)
{
    const double budget = quick ? 0.03 : 0.2;
    const std::size_t peak_iters = quick ? 400000 : 4000000;
    const bool avx2_ok = cpuSupportsAvx2();
    RooflineReport report;

    // --- Ceilings: practical peak FMA rate per level, streaming bandwidth.
    double peak[2] = {0.0, 0.0};
    for (int lvl = 0; lvl <= (avx2_ok ? 1 : 0); ++lvl) {
        double flops = 0.0;
        const double secs = bestSeconds(
            [&] { flops = kernels::peakFmaFlops(peak_iters, lvl == 1); },
            budget);
        peak[lvl] = flops / secs / 1e9;
        report.add({"peak_fma", simdLevelName(static_cast<SimdLevel>(lvl)),
                    0, peak[lvl], "gflops", 1.0});
    }

    const std::size_t triad_n = quick ? 1u << 21 : 1u << 23;
    FloatVec ta(triad_n, 1.0f), tb(triad_n, 2.0f), tc(triad_n, 0.0f);
    const double triad_secs = bestSeconds(
        [&] {
            for (std::size_t i = 0; i < triad_n; ++i)
                tc[i] = ta[i] + 0.5f * tb[i];
        },
        budget);
    volatile float sink = tc[triad_n / 2];
    (void)sink;
    const double gbps =
        static_cast<double>(3 * sizeof(float) * triad_n) / triad_secs / 1e9;
    report.add({"triad", "mem", 0, gbps, "gbps", 1.0});

    const auto levels = [&](auto&& fn) {
        for (int lvl = 0; lvl <= (avx2_ok ? 1 : 0); ++lvl) {
            const auto level = static_cast<SimdLevel>(lvl);
            const ScopedSimdLevel scoped(level);
            fn(level);
        }
    };

    // --- gemmBT: the projection / VMM workhorse.
    {
        const std::size_t m = 128, k = 256, n = 1024;
        const Matrix x = randomMatrix(m, k, 1);
        const Matrix w = randomMatrix(n, k, 2);
        Matrix y;
        const double flops = 2.0 * static_cast<double>(m * k * n);
        double scalar_secs = 0.0;
        levels([&](SimdLevel level) {
            const double secs =
                bestSeconds([&] { gemmBT(x, w, y); }, budget);
            const int lvl = static_cast<int>(level);
            report.add({"gemm_bt", simdLevelName(level), 0,
                        flops / secs / 1e9, "gflops",
                        flops / secs / 1e9 / peak[lvl]});
            if (level == SimdLevel::Scalar)
                scalar_secs = secs;
            else
                report.addSpeedup("gemm_bt", 0, scalar_secs / secs);
        });
    }

    // --- Batched multi-lane VMM (noise toggles off: pure compute path).
    {
        constexpr std::size_t kSize = 256, kRowsPerLane = 16;
        crossbar::CrossbarConfig config;
        config.size = kSize;
        const Matrix w = randomMatrix(kSize, kSize, 3);
        const crossbar::CrossbarTile tile(
            config, w, 0.0f, crossbar::NoiseToggles::allOff(), 7);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{4},
                                        std::size_t{8}}) {
            const Matrix x = randomMatrix(lanes * kRowsPerLane, kSize, 4);
            const BatchLayout layout = uniformLayout(lanes, kRowsPerLane);
            std::vector<Rng> rngs;
            for (std::size_t l = 0; l < lanes; ++l)
                rngs.emplace_back(100 + l);
            std::vector<Rng*> rng_ptrs;
            for (auto& r : rngs)
                rng_ptrs.push_back(&r);
            crossbar::VmmScratch scratch;
            const double flops = 2.0
                * static_cast<double>(lanes * kRowsPerLane * kSize * kSize);
            double scalar_secs = 0.0;
            levels([&](SimdLevel level) {
                const double secs = bestSeconds(
                    [&] {
                        tile.vmmFastLanes(x, layout, rng_ptrs.data(),
                                          scratch);
                    },
                    budget);
                const int lvl = static_cast<int>(level);
                report.add({"vmm_batched", simdLevelName(level), lanes,
                            flops / secs / 1e9, "gflops",
                            flops / secs / 1e9 / peak[lvl]});
                if (level == SimdLevel::Scalar)
                    scalar_secs = secs;
                else
                    report.addSpeedup("vmm_batched", lanes,
                                      scalar_secs / secs);
            });
        }
    }

    // --- Fused LSTM gate block (transcendental-heavy elementwise path).
    {
        constexpr std::size_t kHidden = 256;
        // Nominal flop count per gate unit (pre-adds, 3 sigmoids + 2 tanh
        // at ~12 flops each, cell/hidden update) — fixed so frac_peak is
        // comparable across runs.
        constexpr double kGateFlopsPerUnit = 80.0;
        for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                        std::size_t{8}}) {
            const Matrix zi = randomMatrix(batch, 4 * kHidden, 11);
            const Matrix zr = randomMatrix(batch, 4 * kHidden, 12);
            const Matrix b = randomMatrix(1, 4 * kHidden, 13);
            Matrix c(batch, kHidden), h(batch, kHidden);
            const double flops =
                kGateFlopsPerUnit * static_cast<double>(batch * kHidden);
            double scalar_secs = 0.0;
            levels([&](SimdLevel level) {
                const double secs = bestSeconds(
                    [&] {
                        for (std::size_t l = 0; l < batch; ++l)
                            kernels::lstmGateBlock(
                                zi.rowPtr(l), zr.rowPtr(l), b.rowPtr(0),
                                kHidden, c.rowPtr(l), c.rowPtr(l), nullptr,
                                h.rowPtr(l), nullptr);
                    },
                    budget);
                const int lvl = static_cast<int>(level);
                report.add({"lstm_gate", simdLevelName(level), batch,
                            flops / secs / 1e9, "gflops",
                            flops / secs / 1e9 / peak[lvl]});
                if (level == SimdLevel::Scalar)
                    scalar_secs = secs;
                else
                    report.addSpeedup("lstm_gate", batch,
                                      scalar_secs / secs);
            });
        }
    }

    // --- CTC argmax scan (bandwidth-bound; normalized against triad).
    {
        const std::size_t rows = 2048, n = 512;
        const Matrix logits = randomMatrix(rows, n, 8);
        const double bytes =
            static_cast<double>(rows * n) * sizeof(float);
        double scalar_secs = 0.0;
        levels([&](SimdLevel level) {
            const double secs = bestSeconds(
                [&] {
                    std::size_t acc = 0;
                    for (std::size_t t = 0; t < rows; ++t)
                        acc += kernels::argmaxRow(logits.rowPtr(t), n);
                    volatile std::size_t s = acc;
                    (void)s;
                },
                budget);
            report.add({"ctc_argmax", simdLevelName(level), 0,
                        bytes / secs / 1e9, "gbps",
                        bytes / secs / 1e9 / gbps});
            if (level == SimdLevel::Scalar)
                scalar_secs = secs;
            else
                report.addSpeedup("ctc_argmax", 0, scalar_secs / secs);
        });
    }

    // --- int8 matmul (integer GOPS; frac vs the float FMA peak is an
    //     equivalent-rate tracking ratio, not a true integer ceiling).
    {
        const std::size_t m = 128, k = 256, n = 1024;
        const Matrix xf = randomMatrix(m, k, 21);
        const Matrix wf = randomMatrix(n, k, 22);
        const Int8Tensor wq = Int8Tensor::fromMatrix(wf);
        Int8Vec xq;
        const float x_scale = quantizeRowsInt8(xf, 0, m, xq);
        Matrix y(m, n);
        const double ops =
            2.0 * static_cast<double>(m) * static_cast<double>(wq.stride)
            * static_cast<double>(n);
        double scalar_secs = 0.0;
        levels([&](SimdLevel level) {
            const double secs = bestSeconds(
                [&] {
                    kernels::int8Matmul(xq.data(), m, x_scale, wq, y, 0);
                },
                budget);
            const int lvl = static_cast<int>(level);
            report.add({"int8_gemm", simdLevelName(level), 0,
                        ops / secs / 1e9, "gops",
                        ops / secs / 1e9 / peak[lvl]});
            if (level == SimdLevel::Scalar)
                scalar_secs = secs;
            else
                report.addSpeedup("int8_gemm", 0, scalar_secs / secs);
        });
    }

    for (const std::string& line : report.lines)
        std::printf("%s\n", line.c_str());
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        for (const std::string& line : report.lines)
            out << line << "\n";
        if (!out) {
            std::fprintf(stderr, "roofline: failed to write %s\n",
                         out_path.c_str());
            return 2;
        }
    }

    // --- Regression gate vs the checked-in baseline: each baseline point
    //     must retain at least 80% of its frac_peak.
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "roofline: cannot open baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        int failures = 0;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"roofline\"") == std::string::npos)
                continue;
            const std::string kernel = jsonStr(line, "kernel");
            const std::string level = jsonStr(line, "level");
            if (kernel.empty() || kernel == "peak_fma" || kernel == "triad")
                continue;
            const auto batch = static_cast<std::size_t>(
                jsonNum(line, "batch", 0.0));
            const double base_frac = jsonNum(line, "frac_peak", 0.0);
            if (base_frac <= 0.0)
                continue;
            const RooflinePoint* match = nullptr;
            for (const RooflinePoint& p : report.points)
                if (p.kernel == kernel && p.level == level
                    && p.batch == batch)
                    match = &p;
            if (match == nullptr) {
                // A missing level (e.g. avx2 baseline on a scalar-only
                // host) is a skip, not a regression.
                continue;
            }
            if (match->fracPeak < 0.8 * base_frac) {
                std::fprintf(stderr,
                             "roofline: REGRESSION %s/%s batch=%zu: "
                             "frac_peak %.4f < 0.8 * baseline %.4f\n",
                             kernel.c_str(), level.c_str(), batch,
                             match->fracPeak, base_frac);
                ++failures;
            }
        }
        if (failures > 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    bool roofline = false, quick = false;
    std::string baseline, out;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--roofline") == 0)
            roofline = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline = argv[++i];
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
    }
    if (roofline)
        return runRoofline(quick, baseline, out);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
