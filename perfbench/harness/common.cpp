#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "arch/area.h"
#include "arch/energy.h"
#include "arch/partition.h"
#include "arch/throughput.h"
#include "basecall/bonito_lite.h"
#include "basecall/chunker.h"
#include "basecall/trainer.h"
#include "genomics/pore_model.h"
#include "process.h"
#include "reference.h"
#include "workloads.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace {

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

/**
 * Signal lengths (samples) of the reads of every input dataset, cycled:
 * around 250 bases each, and ragged within a batch of eight as real reads
 * are.
 */
constexpr std::size_t kReadSamples[] = {1200, 1600, 2000, 1400,
                                        1800, 1300, 1700, 1500};

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Report::metric(const std::string& name, double value, const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
        failures_.push_back(what);
    }
}

void
Report::info(const std::string& key, const std::string& json_value)
{
    info_.emplace_back(key, json_value);
}

void
Report::info(const std::string& key, double value)
{
    info_.emplace_back(key, jsonNumber(value));
}

std::string
Report::infoLine() const
{
    std::string out = "# info {";
    for (std::size_t i = 0; i < info_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quoted(info_[i].first) + ": " + info_[i].second;
    }
    out += "}";
    if (!failures_.empty()) {
        out += "\n# failed checks:";
        for (const std::string& f : failures_)
            out += "\n#   " + f;
    }
    return out;
}

std::string
Report::resultLine() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quoted(metrics_[i].name) + ": {\"value\": "
            + jsonNumber(metrics_[i].value) + ", \"unit\": "
            + quoted(metrics_[i].unit) + "}";
    }
    return out + "}}";
}

Sizes
sizesFor(bool smoke)
{
    if (smoke) // 6 jobs/s: one job of each kind in a 0.5 s window
        return {8, 1, 2, 8, 8, 8, 1, 6.0, 2};
    return {40, 4, 4, 8, 16, 8, 8, 3.0, 3};
}

const std::vector<std::string>&
datasetIds()
{
    static const std::vector<std::string> ids = {"D1", "D2", "D3", "D4"};
    return ids;
}

genomics::Dataset
makeInputDataset(const std::string& id, std::uint64_t seed,
                 std::size_t reads)
{
    genomics::DatasetSpec spec = genomics::specById(id);
    spec.seed = hashSeed({spec.seed, seed});
    // Enough candidates that every slot finds a long enough read: the
    // longest slot is below the shortest dataset's mean read length.
    spec.numReads = 8 * reads;
    static const genomics::PoreModel pore;
    genomics::Dataset source = genomics::makeDataset(spec, pore);

    genomics::Dataset out;
    out.spec = source.spec;
    out.reference = std::move(source.reference);
    std::size_t next = 0;
    for (std::size_t slot = 0; slot < reads; ++slot) {
        const std::size_t len = kReadSamples[slot % std::size(kReadSamples)];
        while (next < source.reads.size()
               && source.reads[next].signal.size() < len)
            ++next;
        if (next == source.reads.size())
            throw std::runtime_error("makeInputDataset: " + id
                                     + " has too few long reads");
        genomics::Read read = std::move(source.reads[next++]);
        read.signal.resize(len);
        read.sampleToBase.resize(len);
        read.bases.resize(static_cast<std::size_t>(read.sampleToBase.back())
                          + 1);
        read.id = slot;
        out.reads.push_back(std::move(read));
    }
    out.spec.numReads = reads;
    return out;
}

nn::SequenceModel
trainTeacher(const Sizes& sizes, const std::string& dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const genomics::PoreModel pore;
    const genomics::Dataset corpus =
        genomics::makeTrainingDataset(sizes.trainReads, 400, pore);
    const std::vector<basecall::TrainChunk> chunks =
        basecall::chunkDataset(corpus, 256);
    nn::SequenceModel model = basecall::buildBonitoLite();
    basecall::TrainConfig config;
    config.epochs = sizes.trainEpochs;
    basecall::trainCtc(model, chunks, config);
    model.save(dir + "/teacher.bin");
    return model;
}

bool
sameFileBytes(const std::string& a, const std::string& b)
{
    std::ifstream fa(a, std::ios::binary);
    std::ifstream fb(b, std::ios::binary);
    if (!fa || !fb)
        return false;
    return std::equal(std::istreambuf_iterator<char>(fa),
                      std::istreambuf_iterator<char>(),
                      std::istreambuf_iterator<char>(fb),
                      std::istreambuf_iterator<char>());
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
heapInUseMb()
{
    const struct mallinfo2 info = ::mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0;
}

double
residentMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string word;
    double kb = 0.0;
    while (in >> word && word != "VmRSS:")
        in.ignore(1 << 12, '\n');
    in >> kb;
    return kb / 1024.0;
}

MemorySampler::MemorySampler(std::function<double()> sample)
    : sample_(std::move(sample)), thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stopping_) {
              lock.unlock();
              const double value = sample_();
              lock.lock();
              samples_.push_back(value);
              cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [this] { return stopping_; });
          }
      })
{}

MemorySampler::~MemorySampler()
{
    stop();
}

double
MemorySampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    return quantile(samples_, 0.95);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

RegistryDelta
RegistryDelta::between(const MetricsSnapshot& before,
                       const MetricsSnapshot& after)
{
    RegistryDelta d;
    for (const auto& [name, value] : after.counters) {
        const auto it = before.counters.find(name);
        d.counters[name] = value - (it == before.counters.end() ? 0
                                                               : it->second);
    }
    for (const auto& [name, span] : after.spans) {
        const auto it = before.spans.find(name);
        d.spanSeconds[name] = span.seconds
            - (it == before.spans.end() ? 0.0 : it->second.seconds);
    }
    return d;
}

void
RegistryDelta::add(const RegistryDelta& other)
{
    for (const auto& [name, value] : other.counters)
        counters[name] += value;
    for (const auto& [name, value] : other.spanSeconds)
        spanSeconds[name] += value;
}

std::uint64_t
RegistryDelta::counter(const std::string& name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
RegistryDelta::span(const std::string& name) const
{
    const auto it = spanSeconds.find(name);
    return it == spanSeconds.end() ? 0.0 : it->second;
}

void
printSetupLine(const SetupTimes& t)
{
    std::printf("# setup {\"setup_s\": %s, \"dataset_s\": %s, "
                "\"train_s\": %s}\n",
                jsonNumber(t.setupSeconds).c_str(), jsonNumber(t.datasetSeconds).c_str(),
                jsonNumber(t.trainSeconds).c_str());
    std::fflush(stdout);
}

std::vector<SetupTimes>
runSetupChildren(const Options& opt)
{
    std::vector<SetupTimes> out;
    const std::size_t reps = sizesFor(opt.smoke).setupReps;
    for (std::size_t k = 0; k < reps; ++k) {
        std::vector<std::string> args = opt.args;
        args.insert(args.end(),
                    {"--setup-only", "--work-dir",
                     opt.workDir + "/setup" + std::to_string(k)});
        const std::string text = runSelf(args);
        const std::size_t at = text.rfind("# setup ");
        JsonValue doc;
        if (at == std::string::npos
            || JsonValue::parse(text.substr(at + 8), doc))
            throw std::runtime_error("set-up child printed no timings");
        SetupTimes t;
        t.setupSeconds = doc.get("setup_s").asDouble(0.0);
        t.datasetSeconds = doc.get("dataset_s").asDouble(0.0);
        t.trainSeconds = doc.get("train_s").asDouble(0.0);
        out.push_back(t);
    }
    return out;
}

std::vector<double>
pick(const std::vector<SetupTimes>& setups, double SetupTimes::*field)
{
    std::vector<double> out;
    for (const SetupTimes& t : setups)
        out.push_back(t.*field);
    return out;
}

std::vector<std::pair<std::string, double>>
archOutputs()
{
    struct Named
    {
        arch::Variant variant;
        const char* name;
    };
    static const Named kVariants[] = {
        {arch::Variant::BonitoGpu, "bonito_gpu"},
        {arch::Variant::Ideal, "ideal"},
        {arch::Variant::RealisticRvw, "rvw"},
        {arch::Variant::RealisticRsa, "rsa"},
        {arch::Variant::RealisticRsaKd, "rsa_kd"},
    };
    nn::SequenceModel model = basecall::buildBonitoLite();
    const arch::PartitionMap map = arch::buildPartitionMap(model, 64);
    const arch::TimingParams timing;
    const arch::EnergyParams energy;
    std::vector<std::pair<std::string, double>> out;
    for (const Named& v : kVariants) {
        double kbps = 0.0;
        double uj = 0.0;
        for (const std::string& id : datasetIds()) {
            const genomics::DatasetSpec spec = genomics::specById(id);
            arch::WorkloadProfile wl;
            wl.samplesPerBase = spec.signal.dwellMean;
            wl.convStride = basecall::BonitoLiteConfig{}.convStride;
            wl.meanReadLenBases = static_cast<double>(spec.readLenMean);
            wl.batch = 8;
            kbps += arch::estimateThroughput(v.variant, map, timing, wl).kbps;
            uj += arch::estimateEnergy(v.variant, map, timing, energy, wl)
                      .ujPerKb;
        }
        const double n = static_cast<double>(datasetIds().size());
        out.emplace_back(std::string("arch.kbps.") + v.name, kbps / n);
        out.emplace_back(std::string("arch.energy_uj_per_kb.") + v.name,
                         uj / n);
    }
    out.emplace_back("arch.area_mm2",
                     arch::computeArea(map, arch::AreaParams{}, 0.0).totalMm2);
    return out;
}

void
checkArchOutputs(const std::vector<std::pair<std::string, double>>& out,
                 Report& report)
{
    for (const auto& [name, value] : out) {
        bool found = false;
        for (const RecordedValue& r : kRecordedArch) {
            if (name == r.name) {
                found = true;
                report.check(sameBits(value, r.value),
                             name + " = " + jsonNumber(value) + ", recorded "
                                 + jsonNumber(r.value));
            }
        }
        report.check(found, name + " has no recorded value");
    }
}

void
checkAccuracy(const std::string& what, double value, const AccuracyRef& ref,
              Report& report)
{
    report.check(std::fabs(value - ref.mean) <= ref.tolerance,
                 what + " " + jsonNumber(value) + " is not within "
                     + jsonNumber(ref.tolerance) + " of " + jsonNumber(ref.mean));
}

} // namespace perfbench
