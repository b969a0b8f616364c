/**
 * @file
 * Observing the VMM layer from outside the program: forwarding
 * nn::VmmBackends that wrap the backend the program runs on
 * (core::CrossbarVmmBackend or the ideal FP32 backend) and pass every call
 * through unchanged, so results stay bitwise equal to an unwrapped run
 * (the harness checks that they do).
 *
 *  - TracingBackend times every VMM per weight and each batched forward
 *    pass, from beginBatch() to endBatch().
 *  - ErrorProbe compares every VMM output with the exact product x W^T,
 *    per weight: the relative error the non-idealities put on the VMMs.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "nn/model.h"

namespace perfbench {

using swordfish::BatchLayout;
using swordfish::Matrix;

/** Passes every call through to `inner`; subclasses observe some. */
class ForwardingBackend : public swordfish::nn::VmmBackend
{
  public:
    explicit ForwardingBackend(swordfish::nn::VmmBackend& inner)
        : inner_(inner)
    {}

    void
    matmul(const std::string& name, const Matrix& w, const Matrix& x,
           Matrix& y) override
    {
        inner_.matmul(name, w, x, y);
    }
    void
    matmulBatched(const std::string& name, const Matrix& w, const Matrix& x,
                  Matrix& y, const BatchLayout& layout) override
    {
        inner_.matmulBatched(name, w, x, y, layout);
    }
    void
    beginBatch(const std::vector<std::uint64_t>& streams) override
    {
        inner_.beginBatch(streams);
    }
    void endBatch() override { inner_.endBatch(); }
    void onActivations(Matrix& m) override { inner_.onActivations(m); }
    void beginRead(std::uint64_t s) override { inner_.beginRead(s); }
    void selectBatchLane(std::size_t l) override { inner_.selectBatchLane(l); }
    void
    prepareWeight(const std::string& name, const Matrix& w) override
    {
        inner_.prepareWeight(name, w);
    }
    void finishCompile() override { inner_.finishCompile(); }
    std::size_t
    healthEpochReads() const override
    {
        return inner_.healthEpochReads();
    }
    void healthEpochAdvance() override { inner_.healthEpochAdvance(); }
    bool healthDegraded() const override { return inner_.healthDegraded(); }
    void
    onActivationsRows(Matrix& m, std::size_t begin, std::size_t end) override
    {
        inner_.onActivationsRows(m, begin, end);
    }

  protected:
    swordfish::nn::VmmBackend& inner_;
};

/**
 * Thread-safe time totals of one traced window: VMM time per weight name,
 * VMM calls, and batched forward-pass time. Weights not named at
 * construction are summed under one extra slot.
 */
class LayerClock
{
  public:
    explicit LayerClock(std::vector<std::string> weights);

    LayerClock(const LayerClock&) = delete;
    LayerClock& operator=(const LayerClock&) = delete;

    void addVmm(const std::string& name, std::uint64_t ns);
    void addForward(std::uint64_t ns);

    const std::vector<std::string>& weights() const { return weights_; }
    /** VMM seconds of weight i (i == weights().size(): other names). */
    double weightSeconds(std::size_t i) const;
    double vmmSeconds() const;
    double forwardSeconds() const;

  private:
    std::vector<std::string> weights_;
    std::vector<std::atomic<std::uint64_t>> weightNs_; ///< + "other" slot
    std::atomic<std::uint64_t> forwardNs_{0};
};

/** Times VMMs and batched forward passes into a LayerClock. */
class TracingBackend : public ForwardingBackend
{
  public:
    TracingBackend(swordfish::nn::VmmBackend& inner, LayerClock& clock)
        : ForwardingBackend(inner), clock_(clock)
    {}

    void matmul(const std::string& name, const Matrix& w, const Matrix& x,
                Matrix& y) override;
    void matmulBatched(const std::string& name, const Matrix& w,
                       const Matrix& x, Matrix& y,
                       const BatchLayout& layout) override;
    void beginBatch(const std::vector<std::uint64_t>& streams) override;
    void endBatch() override;

  private:
    LayerClock& clock_;
};

/** Squared-error totals of VMM outputs against x W^T, per weight. */
class VmmError
{
  public:
    void add(const std::string& name, const Matrix& exact, const Matrix& y);

    /** sqrt(sum (y - exact)^2 / sum exact^2) over every weight seen. */
    double relativeError() const;

  private:
    struct Sums
    {
        std::string name;
        double error = 0.0;
        double signal = 0.0;
    };
    mutable std::mutex mutex_;
    std::vector<Sums> sums_;
};

/** Records every VMM output's error against the exact product. */
class ErrorProbe : public ForwardingBackend
{
  public:
    ErrorProbe(swordfish::nn::VmmBackend& inner, VmmError& error)
        : ForwardingBackend(inner), error_(error)
    {}

    void matmul(const std::string& name, const Matrix& w, const Matrix& x,
                Matrix& y) override;
    void matmulBatched(const std::string& name, const Matrix& w,
                       const Matrix& x, Matrix& y,
                       const BatchLayout& layout) override;

  private:
    VmmError& error_;
};

/** Names of the crossbar-mapped weights of a model, in parameter order. */
std::vector<std::string>
mappedWeightNames(swordfish::nn::SequenceModel& model);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
