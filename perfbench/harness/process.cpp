#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/** argv for execv; the strings must outlive the call. */
std::vector<char*>
argvOf(const std::string& path, const std::vector<std::string>& args)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    return argv;
}

std::string
selfPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve the harness executable");
    return std::string(buf, static_cast<std::size_t>(n));
}

} // namespace

std::string
runSelf(const std::vector<std::string>& args)
{
    const std::string path = selfPath();
    std::vector<char*> argv = argvOf(path, args);
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv(path.c_str(), argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up child failed");
    return out;
}

ChildProcess::ChildProcess(
    const std::string& path, const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& env)
{
    std::vector<char*> argv = argvOf(path, args);
    // The environment is built before fork: between fork and exec a
    // multi-threaded parent's child may only make async-signal-safe calls.
    std::vector<std::string> entries;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        bool overridden = false;
        for (const auto& [name, value] : env)
            overridden = overridden || entry.rfind(name + "=", 0) == 0;
        if (!overridden)
            entries.push_back(entry);
    }
    for (const auto& [name, value] : env)
        entries.push_back(name + "=" + value);
    std::vector<char*> envp;
    for (std::string& entry : entries)
        envp.push_back(entry.data());
    envp.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Die with the harness even if it crashes; keep the harness's last
        // stdout line its result.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        ::execve(path.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }
}

ChildProcess::~ChildProcess()
{
    if (pid_ > 0 && running()) {
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
        }
    }
}

bool
ChildProcess::running()
{
    if (reaped_)
        return false;
    const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
        reaped_ = true;
        return false;
    }
    return true;
}

bool
ChildProcess::waitExit(double timeout_s)
{
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration<double>(timeout_s);
    while (running()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
            }
            reaped_ = true;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

} // namespace perfbench
