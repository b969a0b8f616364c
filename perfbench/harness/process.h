/**
 * @file
 * Child processes of the harness: cold set-up runs of the harness itself
 * and the swordfishd daemon. Every child is waited for; a daemon still
 * running when its owner is destroyed is killed and reaped, and one whose
 * harness dies is killed by the kernel.
 */

#ifndef PERFBENCH_PROCESS_H
#define PERFBENCH_PROCESS_H

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Run this executable again with `args`, wait for it and return its
 * standard output. Throws when it cannot start or exits non-zero.
 */
std::string runSelf(const std::vector<std::string>& args);

/** A spawned program whose standard output goes to our standard error. */
class ChildProcess
{
  public:
    /**
     * Start `path` with `args`; `env` entries (NAME, value) are set in the
     * child only. Throws when fork fails.
     */
    ChildProcess(const std::string& path,
                 const std::vector<std::string>& args,
                 const std::vector<std::pair<std::string, std::string>>& env);
    ~ChildProcess(); ///< kills and reaps a child still running

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;

    pid_t pid() const { return pid_; }

    /** True while the child has not exited (reaps it when it has). */
    bool running();

    /**
     * Wait up to `timeout_s` for the child to exit; true when it exited
     * with status 0. A child still running afterwards is killed.
     */
    bool waitExit(double timeout_s);

  private:
    pid_t pid_ = -1;
    int status_ = 0;
    bool reaped_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_PROCESS_H
