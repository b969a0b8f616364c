/**
 * @file
 * daemon_mix: a forked swordfishd with a fixed worker count and a spool
 * directory, driven by an open-loop client at a fixed rate below
 * capacity. Jobs are small JobSpecs cycling over three kinds (Combined
 * crossbar evaluation at batch 1, measured-library crossbar evaluation,
 * quantized digital evaluation) and D1–D4. Each job materializes its own
 * dataset and model and programs fresh tiles, so this is the only
 * workload that exercises service admission, scheduling, spool fsync and
 * streaming, and many short unbatched evaluations.
 *
 * Each job is timed from the moment it was due to be sent to the end of
 * its progress stream. Its Running transition is read from the spool
 * directory with inotify, which splits the latency into generator lag,
 * submit round trip, queue wait and run time without touching the daemon.
 */

#include <poll.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "layers.h"
#include "process.h"
#include "service/job_spec.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** A newline-delimited JSON connection to the daemon's AF_UNIX socket. */
class Conn
{
  public:
    explicit Conn(const std::string& path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return;
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr))
            != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    bool connected() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    bool
    sendLine(const std::string& line)
    {
        const std::string data = line + "\n";
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read what is available; complete lines go to `out`. False at EOF. */
    bool
    readLines(std::vector<std::string>& out)
    {
        char buf[8192];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
        buffer_.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buffer_.find('\n')) != std::string::npos) {
            out.push_back(buffer_.substr(0, nl));
            buffer_.erase(0, nl + 1);
        }
        return true;
    }

    /** Wait up to `timeout_s` for one line. */
    bool
    recvLine(std::string& line, double timeout_s)
    {
        const Clock::time_point t0 = Clock::now();
        std::vector<std::string> lines;
        while (lines.empty()) {
            const double left = timeout_s - secondsSince(t0);
            if (left <= 0.0)
                return false;
            pollfd pfd{fd_, POLLIN, 0};
            ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1e3)));
            if (!readLines(lines))
                return false;
        }
        line = lines.front();
        return true;
    }

    /** One request, one parsed reply. */
    bool
    roundTrip(const std::string& request, JsonValue& reply)
    {
        std::string line;
        return sendLine(request) && recvLine(line, 30.0)
            && !JsonValue::parse(line, reply);
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** The job kinds, in the order the mix cycles through them. */
constexpr const char* kKindNames[] = {"combined", "measured", "quantized"};

/** The fixed job mix: kind by index mod 3, dataset by index mod 4. */
service::JobSpec
jobSpec(std::uint64_t seed, std::size_t i, const Sizes& sizes)
{
    service::JobSpec spec;
    spec.tenant = "perfbench";
    spec.datasetId = datasetIds()[i % datasetIds().size()];
    // The measured and quantized kinds take 3x the reads, so every kind
    // runs for 0.2-0.35 s and job_p50_s (which falls among them) follows
    // their compute, not the few milliseconds of a job's fixed cost.
    spec.datasetReads = sizes.jobReads * (i % 3 == 0 ? 1 : 3);
    spec.request.runs = 1;
    spec.request.batch = 1;
    spec.request.seedBase = hashSeed({seed, 0x7275ULL, i});
    switch (i % 3) {
      case 0:
        spec.kind = service::JobKind::NonIdeal;
        spec.scenarioKind = "combined";
        break;
      case 1:
        spec.kind = service::JobKind::NonIdeal;
        spec.scenarioKind = "measured";
        break;
      default:
        spec.kind = service::JobKind::Quantized;
        spec.weightBits = 8;
        spec.activationBits = 8;
        break;
    }
    spec.crossbarSize = 64;
    return spec;
}

/** Reads one job basecalls (every Monte-Carlo run counts). */
std::size_t
jobReads(const service::JobSpec& spec)
{
    return spec.datasetReads
        * (spec.kind == service::JobKind::NonIdeal ? spec.request.runs : 1);
}

/** What the client saw of one job, in seconds from the window start. */
struct JobTrace
{
    service::JobSpec spec;
    double due = 0.0;
    double sent = -1.0;
    double acked = -1.0;
    double running = -1.0; ///< Running record seen in the spool
    double done = -1.0;    ///< stream ended with the terminal status
    std::string id;
    std::string state;     ///< terminal state ("" = none seen)
    bool refused = false;
    service::JobResult result;
    std::unique_ptr<Conn> stream;
};

/** A running swordfishd; shut down (or killed) when destroyed. */
class Daemon
{
  public:
    Daemon(const Options& opt, const std::string& dir,
           const std::string& metrics_out)
        : socket_(dir + "/d.sock"), spool_(dir + "/spool")
    {
        std::filesystem::create_directories(spool_);
        std::vector<std::pair<std::string, std::string>> env = {
            {"SWORDFISH_THREADS", std::to_string(opt.daemonThreads)}};
        if (!metrics_out.empty())
            env.emplace_back("SWORDFISH_METRICS_OUT", metrics_out);
        proc_ = std::make_unique<ChildProcess>(
            opt.swordfishd,
            std::vector<std::string>{
                "--socket", socket_, "--spool", spool_, "--workers",
                std::to_string(opt.daemonWorkers), "--queue", "1024",
                "--quota", "1024"},
            env);
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            control_ = std::make_unique<Conn>(socket_);
            JsonValue reply;
            if (control_->connected()
                && control_->roundTrip("{\"op\":\"ping\"}", reply)
                && reply.get("ok").asBool(false))
                break;
            if (!proc_->running() || secondsSince(t0) > 60.0)
                throw std::runtime_error("swordfishd did not come up");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    ~Daemon()
    {
        if (proc_->running())
            shutdown();
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& socket() const { return socket_; }
    const std::string& spool() const { return spool_; }
    Conn& control() { return *control_; }

    pid_t pid() const { return proc_->pid(); }

    /** Wire-protocol shutdown; true when the daemon exited cleanly. */
    bool
    shutdown()
    {
        JsonValue reply;
        control_->roundTrip("{\"op\":\"shutdown\"}", reply);
        return proc_->waitExit(60.0);
    }

  private:
    std::string socket_;
    std::string spool_;
    std::unique_ptr<ChildProcess> proc_;
    std::unique_ptr<Conn> control_;
};

/** Submit one job and open its progress stream; marks a refusal. */
void
submit(Daemon& daemon, JobTrace& job, Clock::time_point t0)
{
    job.sent = secondsSince(t0);
    JsonValue reply;
    const bool answered = daemon.control().roundTrip(
        "{\"op\":\"submit\",\"spec\":" + job.spec.toJson() + "}", reply);
    job.acked = secondsSince(t0);
    if (!answered || !reply.get("ok").asBool(false)) {
        job.refused = true;
        return;
    }
    job.id = reply.get("id").asString();
    job.stream = std::make_unique<Conn>(daemon.socket());
    if (!job.stream->connected()
        || !job.stream->sendLine("{\"op\":\"stream\",\"id\":\"" + job.id
                                 + "\",\"from\":0}"))
        throw std::runtime_error("cannot stream job " + job.id);
}

/** Consume stream lines of one job; records the terminal status. */
void
readStream(JobTrace& job, Clock::time_point t0)
{
    std::vector<std::string> lines;
    const bool open = job.stream->readLines(lines);
    for (const std::string& line : lines) {
        JsonValue msg;
        if (JsonValue::parse(line, msg) || !msg.get("done").asBool(false))
            continue;
        job.done = secondsSince(t0);
        const JsonValue& status = msg.get("status");
        job.state = status.get("state").asString();
        service::JobResult::fromJsonValue(status.get("result"), job.result);
    }
    if (job.done >= 0.0 || !open)
        job.stream.reset();
}

/** Record Running transitions from the spool directory's renames. */
void
readSpoolEvents(int inotify_fd, const std::string& spool,
                std::vector<JobTrace>& jobs, Clock::time_point t0)
{
    alignas(inotify_event) char buf[16384];
    const ssize_t n = ::read(inotify_fd, buf, sizeof(buf));
    for (ssize_t off = 0; n > 0 && off < n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
        off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
        const std::string name = ev->len > 0 ? ev->name : "";
        if (name.size() < 6 || name.compare(name.size() - 5, 5, ".json"))
            continue;
        const std::string id = name.substr(0, name.size() - 5);
        for (JobTrace& job : jobs) {
            if (job.id != id || job.running >= 0.0)
                continue;
            std::ifstream in(spool + "/" + name);
            std::stringstream text;
            text << in.rdbuf();
            JsonValue doc;
            if (!JsonValue::parse(text.str(), doc)
                && doc.get("state").asString() != "queued")
                job.running = secondsSince(t0);
        }
    }
}

/**
 * Drive `jobs` open-loop: job i is due at i / rate seconds after the
 * window starts. Returns once every accepted job ended, or 60 s after
 * the last was due.
 */
void
driveWindow(Daemon& daemon, std::vector<JobTrace>& jobs, double rate)
{
    const struct Inotify
    {
        int fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
        ~Inotify()
        {
            if (fd >= 0)
                ::close(fd);
        }
    } inotify;
    if (inotify.fd < 0
        || ::inotify_add_watch(inotify.fd, daemon.spool().c_str(),
                               IN_MOVED_TO)
            < 0)
        throw std::runtime_error("inotify on the spool failed");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].due = static_cast<double>(i) / rate;
    const Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    for (;;) {
        const double now = secondsSince(t0);
        if (next < jobs.size() && now >= jobs[next].due) {
            submit(daemon, jobs[next++], t0);
            continue;
        }
        std::vector<pollfd> fds = {{inotify.fd, POLLIN, 0}};
        std::vector<JobTrace*> open;
        for (JobTrace& job : jobs) {
            if (job.stream) {
                fds.push_back({job.stream->fd(), POLLIN, 0});
                open.push_back(&job);
            }
        }
        if (next == jobs.size()
            && (open.empty() || now > jobs.back().due + 60.0))
            break;
        const double wait = next < jobs.size() ? jobs[next].due - now : 0.05;
        ::poll(fds.data(), fds.size(),
               static_cast<int>(std::ceil(std::min(0.05, wait) * 1e3)));
        if (fds[0].revents & POLLIN)
            readSpoolEvents(inotify.fd, daemon.spool(), jobs, t0);
        for (std::size_t k = 0; k < open.size(); ++k)
            if (fds[k + 1].revents & (POLLIN | POLLHUP | POLLERR))
                readStream(*open[k], t0);
    }
    // A Running record renamed in just before the stream ended may have
    // been missed by a read that raced it; the stream end bounds it.
    for (JobTrace& job : jobs)
        if (job.done >= 0.0 && job.running < 0.0)
            job.running = job.done;
}

/** Warm-up jobs: one of each kind, run one after the other. */
void
warmUp(Daemon& daemon, const Options& opt, const Sizes& sizes)
{
    for (std::size_t i = 0; i < 3; ++i) {
        std::vector<JobTrace> one(1);
        one[0].spec = jobSpec(opt.seed ^ 0x7761726dULL, i, sizes);
        driveWindow(daemon, one, 1.0);
        if (one[0].state != "completed")
            throw std::runtime_error("warm-up job did not complete");
    }
}

std::vector<JobTrace>
planJobs(const Options& opt, const Sizes& sizes)
{
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(opt.seconds * sizes.jobRate)));
    std::vector<JobTrace> jobs(n);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i].spec = jobSpec(opt.seed, i, sizes);
    return jobs;
}

/** A started daemon that has run one warm-up job of each kind. */
std::unique_ptr<Daemon>
startWarm(const Options& opt, const std::string& dir,
          const std::string& metrics_out)
{
    auto daemon = std::make_unique<Daemon>(opt, dir, metrics_out);
    warmUp(*daemon, opt, sizesFor(opt.smoke));
    return daemon;
}

std::vector<double>
collect(const std::vector<JobTrace>& jobs, double (*f)(const JobTrace&))
{
    std::vector<double> out;
    for (const JobTrace& job : jobs)
        if (job.state == "completed")
            out.push_back(f(job));
    return out;
}

} // namespace

void
runDaemonMix(const Options& opt, Report& report)
{
    const Sizes sizes = sizesFor(opt.smoke);
    if (opt.setupOnly) {
        SetupTimes t;
        const Clock::time_point t0 = Clock::now();
        auto daemon = startWarm(opt, opt.workDir, "");
        t.setupSeconds = secondsSince(t0);
        daemon->shutdown();
        printSetupLine(t);
        return;
    }
    setGlobalPoolThreads(opt.daemonThreads);

    // Every set-up runs cold in its own process; the daemon measured here
    // is started the same way, untimed. A traced run's daemon also writes
    // its metrics registry at exit, which costs nothing while it serves.
    const std::vector<SetupTimes> setups = runSetupChildren(opt);
    const std::string metrics_out =
        opt.trace ? opt.workDir + "/metrics.json" : "";
    std::unique_ptr<Daemon> daemon =
        startWarm(opt, opt.workDir + "/daemon", metrics_out);

    std::vector<JobTrace> jobs = planJobs(opt, sizes);
    const pid_t daemon_pid = daemon->pid();
    MemorySampler memory([daemon_pid] { return residentMb(daemon_pid); });
    driveWindow(*daemon, jobs, sizes.jobRate);
    const double memory_mb = memory.stop();
    report.check(daemon->shutdown(), "swordfishd did not exit cleanly");
    daemon.reset();

    std::size_t failed = 0;
    for (const JobTrace& job : jobs) {
        const bool terminal = job.refused || !job.state.empty();
        report.check(terminal, "job " + job.id + " never terminated");
        failed += job.state == "completed" ? 0 : 1;
    }
    report.attempted = jobs.size();
    report.failed = failed;
    const std::vector<std::pair<std::string, double>> arch = archOutputs();
    checkArchOutputs(arch, report);

    // The daemon's results must equal a direct in-process runJobSpec of
    // the same spec, bitwise: the first job of each kind.
    for (std::size_t i = 0; i < std::min<std::size_t>(3, jobs.size()); ++i) {
        const service::JobResult direct = service::runJobSpec(jobs[i].spec);
        report.check(jobs[i].state == "completed"
                         && sameBits(direct.mean, jobs[i].result.mean)
                         && sameBits(direct.stddev, jobs[i].result.stddev),
                     "daemon result of job " + std::to_string(i)
                         + " differs from a direct runJobSpec");
    }

    const std::vector<double> latency =
        collect(jobs, [](const JobTrace& j) { return j.done - j.due; });
    std::size_t slo_met = 0;
    for (const JobTrace& job : jobs)
        slo_met += job.state == "completed" && job.done - job.due
                <= opt.sloSeconds ? 1 : 0;
    // Reads per second a worker is busy, over one cycle of the mix with
    // each kind at its median run time: the host speed of the daemon path,
    // independent of the offered rate and of the rare job that shared the
    // pool with a neighbour.
    double cycle_reads = 0.0, cycle_busy = 0.0;
    std::string by_kind = "{";
    for (std::size_t k = 0; k < 3; ++k) {
        std::vector<double> lat, run;
        for (std::size_t i = k; i < jobs.size(); i += 3) {
            if (jobs[i].state != "completed")
                continue;
            lat.push_back(jobs[i].done - jobs[i].due);
            run.push_back(jobs[i].done - jobs[i].running);
        }
        if (!run.empty()) {
            cycle_reads += static_cast<double>(jobReads(jobs[k].spec));
            cycle_busy += median(run);
        }
        by_kind += (k ? ", \"" : "\"") + std::string(kKindNames[k])
            + "\": {\"latency_p50_s\": " + jsonNumber(median(lat))
            + ", \"run_p50_s\": " + jsonNumber(median(run)) + "}";
    }
    report.info("workload", "\"daemon_mix\"");
    report.info("jobs", static_cast<double>(jobs.size()));
    report.info("latency_samples", static_cast<double>(latency.size()));
    report.info("setup_samples", static_cast<double>(setups.size()));
    report.info("by_kind", by_kind + "}");

    if (!opt.trace) {
        report.metric("reads_per_s",
                      cycle_busy > 0.0 ? cycle_reads / cycle_busy : 0.0,
                      "reads/s");
        report.metric("job_p50_s", quantile(latency, 0.5), "s");
        report.metric("job_p90_s", quantile(latency, 0.9), "s");
        report.metric("slo_met_frac",
                      static_cast<double>(slo_met)
                          / static_cast<double>(jobs.size()),
                      "fraction");
        report.metric("success_frac",
                      1.0 - static_cast<double>(failed)
                          / static_cast<double>(jobs.size()),
                      "fraction");
        report.metric("setup_s",
                      median(pick(setups, &SetupTimes::setupSeconds)), "s");
        report.metric("mem_p95_mb", memory_mb, "MiB");
        return;
    }

    std::ifstream in(metrics_out);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    report.check(!JsonValue::parse(text.str(), doc),
                 "daemon metrics dump is missing or malformed");
    // The daemon's own registry, over the warm-up and window jobs alike.
    auto counter = [&doc](const char* name) {
        return doc.get("counters").get(name).asDouble(0.0);
    };
    auto span = [&doc](const char* name) {
        return doc.get("spans").get(name).get("seconds").asDouble(0.0);
    };
    const double eval_reads = counter("eval.reads");
    auto per_read = [eval_reads](double x) {
        return eval_reads > 0.0 ? x / eval_reads : 0.0;
    };
    const double adc = counter("vmm.adc_conversions");
    const double mc_runs = counter("mc.runs");
    LayerTable layers;
    layers.set("core.vmm_s", per_read(span("vmm")));
    layers.set("core.vmm_ns_per_adc", adc > 0.0 ? span("vmm") * 1e9 / adc : 0.0);
    layers.set("core.program_s",
               mc_runs > 0.0 ? span("program") / mc_runs : 0.0);
    layers.set("core.vmm_calls_per_read", per_read(counter("vmm.calls")));
    layers.set("crossbar.tile_vmms_per_read",
               per_read(counter("vmm.tile_vmms")));
    layers.set("crossbar.adc_conv_per_read", per_read(adc));
    layers.set("crossbar.dac_conv_per_read",
               per_read(counter("vmm.dac_conversions")));
    layers.set("basecall.gather_s", per_read(span("chunk")));
    layers.set("basecall.ctc_s", per_read(span("ctc")));
    layers.set("genomics.align_s", per_read(span("align")));

    std::vector<double> rtt, queue, lag;
    for (const JobTrace& job : jobs) {
        lag.push_back(job.sent - job.due);
        rtt.push_back(job.acked - job.sent);
        if (job.state == "completed")
            queue.push_back(job.running - job.acked);
    }
    layers.set("service.submit_rtt_p50_s", median(rtt));
    layers.set("service.queue_wait_p50_s", quantile(queue, 0.5));
    layers.set("service.queue_wait_p90_s", quantile(queue, 0.9));
    layers.set("service.run_p50_s",
               median(collect(jobs, [](const JobTrace& j) {
                   return j.done - j.running;
               })));
    layers.set("gen.lag_p90_s", quantile(lag, 0.9));
    for (const auto& [name, value] : arch)
        layers.set(name, value);
    // The client observes a traced window exactly as an untraced one and
    // the daemon writes its registry only at exit: tracing costs nothing.
    layers.set("trace_overhead_frac", 0.0);
    layers.emit(report);
    report.info("daemon_eval_reads", eval_reads);
}

} // namespace perfbench
