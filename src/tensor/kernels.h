/**
 * @file
 * Vectorized hot-path kernels with runtime SIMD dispatch (tensor/simd.h).
 *
 * Every kernel here exists in two implementations — portable scalar and
 * AVX2+FMA — that are bitwise-identical by construction: both execute the
 * same fixed blocked-reduction order (8 independent fma lanes over the
 * reduction axis, tail elements folded into lanes 0..r-1, then the fixed
 * tree (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7)), and every elementwise transcen-
 * dental is a shared polynomial approximation whose scalar form mirrors the
 * vector instruction semantics op for op (including NaN propagation). See
 * DESIGN.md §4.11 for the contract and dispatch rules.
 *
 * Float kernels: gemmBT (the VMM/projection workhorse), the fused LSTM
 * gate block, CTC row max/argmax, abs-max scans and the quantizer's grid
 * snap. Integer kernels: the int8-weight / int16-product / int32-
 * accumulate matmul behind the quantized inference path — integer
 * arithmetic is exact, so that kernel is bitwise-identical across levels
 * for free.
 */

#ifndef SWORDFISH_TENSOR_KERNELS_H
#define SWORDFISH_TENSOR_KERNELS_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/matrix.h"

namespace swordfish {
struct Int8Tensor; // tensor/quantize.h
} // namespace swordfish

namespace swordfish::kernels {

/**
 * C = A * B^T with the blocked-reduction contract; the dispatch target
 * behind swordfish::gemmBT. A is m x k, B is n x k, C is m x n. Rows of C
 * are independent (OpenMP parallelizes over them), so thread count never
 * changes the reduction order.
 */
void gemmBT(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate);

/** Blocked-order dot product of two length-k ranges (exposed for tests). */
float dotBlocked(const float* a, const float* b, std::size_t k);

/**
 * Shared exp/sigmoid/tanh approximations (scalar reference). The AVX2 gate
 * kernel executes the same op sequence lanewise, so these define the exact
 * numerics of the LSTM gate block on every path. Domain notes: expApproxf
 * clamps to [-87, 88] (callers only pass non-positive arguments);
 * sigmoidApproxf is in (0, 1); tanhApproxf is in [-1, 1] and exact at 0.
 */
float expApproxf(float x);
float sigmoidApproxf(float x);
float tanhApproxf(float x);

/**
 * Fused LSTM gate block for one timestep of `hidden` units. Inputs are the
 * input projection zi, recurrent projection zr, and bias b, each 4*hidden
 * long in gate order [i, f, g, o]; c_prev holds the previous cell state.
 * Writes the new cell state to c_out (aliasing c_prev is allowed), tanh(c)
 * to tanh_c_out (optional, may be null), the hidden state to h_out, and
 * the activated gates to gates_out (optional, 4*hidden, for backward).
 *
 * Per unit j: pre-activation p = (zi + zr) + b per gate, i/f/o = sigmoid,
 * g = tanh, c = fma(f, c_prev, i*g), h = o * tanh(c).
 */
void lstmGateBlock(const float* zi, const float* zr, const float* b,
                   std::size_t hidden, const float* c_prev, float* c_out,
                   float* tanh_c_out, float* h_out, float* gates_out);

/**
 * Index of the first maximum of row[0..n) (strict-greater scan order, NaN
 * entries never win) — the CTC greedy-decode inner loop. n must be >= 1.
 */
std::size_t argmaxRow(const float* row, std::size_t n);

/** Maximum of row[0..n) (blocked max; NaN entries are skipped). n >= 1. */
float rowMax(const float* row, std::size_t n);

/** max |v[i]| over [0, n) (blocked; NaN entries are skipped; 0 for n=0). */
float absMaxRange(const float* v, std::size_t n);

/**
 * One value on the symmetric quantization grid: nearbyint(v / scale)
 * clamped to [lo, hi], times scale. The clamp is two compare-selects, the
 * scalar form of vmaxps(q, lo) and vminps(a, hi): a NaN q falls to lo, as
 * fmin(fmax(q, lo), hi) does, and since lo < 0 < hi every other value
 * (±0 and ±Inf included) clamps as fmin/fmax would.
 */
inline float
quantizeLevel(float v, float scale, float lo, float hi)
{
    const float q = std::nearbyint(v / scale);
    const float a = q > lo ? q : lo;
    return (a < hi ? a : hi) * scale;
}

/**
 * quantizeLevel over v[0..n) in place: the activation quantizer's loop.
 * Both levels round in the current rounding mode, as std::nearbyint does.
 */
void quantizeRange(float* v, std::size_t n, float scale, float lo, float hi);

/**
 * Integer matmul of the quantized inference path: for each of `rows` rows
 * of quantized activations xq (stride w.stride, zero-padded), compute
 * int32 accumulations against every int8 weight row of w and store the
 * dequantized float y(row_offset + t, o) = acc * (x_scale * w.rowScale[o]).
 * Products are int16-exact (|q| <= 127), accumulation int32-exact, so the
 * result is independent of the SIMD level by construction.
 */
void int8Matmul(const std::int8_t* xq, std::size_t rows, float x_scale,
                const Int8Tensor& w, Matrix& y, std::size_t row_offset);

/**
 * Roofline probes (bench/micro_kernels --roofline): run `iters` iterations
 * of a pure FMA dependency-free loop at the given level and return the
 * flop count executed (8 accumulators; x8 lanes on AVX2). The measured
 * rate is the practical peak the per-kernel achieved GFLOPs are normalized
 * against.
 */
double peakFmaFlops(std::size_t iters, bool avx2);

} // namespace swordfish::kernels

#endif // SWORDFISH_TENSOR_KERNELS_H
