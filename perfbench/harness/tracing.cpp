#include "tracing.h"

#include <chrono>
#include <cmath>

#include "core/deploy.h"
#include "tensor/matrix.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Start of the calling thread's open batched forward pass. */
thread_local Clock::time_point tls_forward_start;

std::uint64_t
nanosSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now()
                                                             - t0)
            .count());
}

} // namespace

LayerClock::LayerClock(std::vector<std::string> weights)
    : weights_(std::move(weights)), weightNs_(weights_.size() + 1)
{}

void
LayerClock::addVmm(const std::string& name, std::uint64_t ns)
{
    std::size_t slot = weights_.size();
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        if (weights_[i] == name) {
            slot = i;
            break;
        }
    }
    weightNs_[slot].fetch_add(ns, std::memory_order_relaxed);
}

void
LayerClock::addForward(std::uint64_t ns)
{
    forwardNs_.fetch_add(ns, std::memory_order_relaxed);
}

double
LayerClock::weightSeconds(std::size_t i) const
{
    return static_cast<double>(weightNs_[i].load()) * 1e-9;
}

double
LayerClock::vmmSeconds() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < weightNs_.size(); ++i)
        total += weightSeconds(i);
    return total;
}

double
LayerClock::forwardSeconds() const
{
    return static_cast<double>(forwardNs_.load()) * 1e-9;
}

void
TracingBackend::matmul(const std::string& name, const Matrix& w,
                       const Matrix& x, Matrix& y)
{
    const Clock::time_point t0 = Clock::now();
    inner_.matmul(name, w, x, y);
    clock_.addVmm(name, nanosSince(t0));
}

void
TracingBackend::matmulBatched(const std::string& name, const Matrix& w,
                              const Matrix& x, Matrix& y,
                              const BatchLayout& layout)
{
    const Clock::time_point t0 = Clock::now();
    inner_.matmulBatched(name, w, x, y, layout);
    clock_.addVmm(name, nanosSince(t0));
}

void
TracingBackend::beginBatch(const std::vector<std::uint64_t>& streams)
{
    inner_.beginBatch(streams);
    tls_forward_start = Clock::now();
}

void
TracingBackend::endBatch()
{
    clock_.addForward(nanosSince(tls_forward_start));
    inner_.endBatch();
}

void
VmmError::add(const std::string& name, const Matrix& exact, const Matrix& y)
{
    double error = 0.0, signal = 0.0;
    const auto& e = exact.raw();
    const auto& v = y.raw();
    for (std::size_t i = 0; i < e.size() && i < v.size(); ++i) {
        const double d = static_cast<double>(v[i]) - e[i];
        error += d * d;
        signal += static_cast<double>(e[i]) * e[i];
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (Sums& s : sums_) {
        if (s.name == name) {
            s.error += error;
            s.signal += signal;
            return;
        }
    }
    sums_.push_back({name, error, signal});
}

double
VmmError::relativeError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double error = 0.0, signal = 0.0;
    for (const Sums& s : sums_) {
        error += s.error;
        signal += s.signal;
    }
    return signal > 0.0 ? std::sqrt(error / signal) : 0.0;
}

void
ErrorProbe::matmul(const std::string& name, const Matrix& w, const Matrix& x,
                   Matrix& y)
{
    inner_.matmul(name, w, x, y);
    Matrix exact;
    swordfish::gemmBT(x, w, exact);
    error_.add(name, exact, y);
}

void
ErrorProbe::matmulBatched(const std::string& name, const Matrix& w,
                          const Matrix& x, Matrix& y,
                          const BatchLayout& layout)
{
    inner_.matmulBatched(name, w, x, y, layout);
    Matrix exact;
    swordfish::gemmBT(x, w, exact);
    error_.add(name, exact, y);
}

std::vector<std::string>
mappedWeightNames(swordfish::nn::SequenceModel& model)
{
    std::vector<std::string> names;
    for (const swordfish::nn::Parameter* p : model.parameters())
        if (swordfish::core::isVmmWeight(p->name))
            names.push_back(p->name);
    return names;
}

} // namespace perfbench
