/**
 * @file
 * Minimal POSIX subprocess with a piped stdout, used by the
 * multi-process DSE distributor to spawn worker processes (which then
 * dial back over a socket) and by tests to read a listening worker's
 * banner. stdin and stderr are inherited, so worker diagnostics land
 * in the parent's stream. No external dependencies: fork/execve + a
 * pipe.
 */
#ifndef FINESSE_SUPPORT_SUBPROCESS_H_
#define FINESSE_SUPPORT_SUBPROCESS_H_

#include <string>
#include <vector>

#include "support/common.h"

namespace finesse {

/**
 * One spawned child process whose stdout the parent reads with
 * readSome(). Destruction kills (SIGKILL) and reaps a still-running
 * child; call wait() for a clean exit.
 */
class Subprocess
{
  public:
    Subprocess() = default;
    ~Subprocess();

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;
    Subprocess(Subprocess &&other) noexcept { *this = std::move(other); }
    Subprocess &operator=(Subprocess &&other) noexcept;

    /**
     * Fork + exec @p argv (argv[0] is the executable path; no PATH
     * search). @p extraEnv entries ("KEY=VALUE") OVERRIDE any parent
     * environment entry with the same KEY (getenv returns the first
     * match, so a plain append could never override an inherited
     * value -- the distributor relies on per-worker fault plans
     * shadowing an ambient FINESSE_DSE_FAULT). Throws FatalError when
     * the pipe or fork fail; exec failure in the child surfaces as
     * exit code 127. Spawning also ignores SIGPIPE process-wide
     * (once) so a write to a crashed worker reports EPIPE instead of
     * killing us.
     */
    void spawn(const std::vector<std::string> &argv,
               const std::vector<std::string> &extraEnv = {});

    bool running() const { return pid_ > 0; }
    int pid() const { return pid_; }

    /**
     * One blocking read from the child's stdout into @p buf. Returns
     * the byte count, 0 on EOF (child closed / exited), -1 on error.
     */
    long readSome(void *buf, size_t n);

    /** Send a signal (e.g. SIGKILL) to a running child. */
    void kill(int sig);

    /**
     * Reap the child (blocking). Returns the raw waitpid status; use
     * exitedCleanly() for the common check. No-op -1 when not running.
     */
    int wait();

    /** True when @p waitStatus is a normal exit with code 0. */
    static bool exitedCleanly(int waitStatus);

    /** True when @p waitStatus records death by signal. */
    static bool wasSignaled(int waitStatus);

    /** Terminating signal number (0 when not signaled). */
    static int termSignal(int waitStatus);

    /** Exit code of a normal exit (-1 when signaled/not exited). */
    static int exitCode(int waitStatus);

  private:
    void closeFd();

    int pid_ = -1;
    int stdoutFd_ = -1;
};

/**
 * Write the whole buffer to @p fd, retrying on EINTR and waiting out
 * EAGAIN/EWOULDBLOCK via poll(POLLOUT); false on any real error
 * (EPIPE included). The one write loop shared by the master's socket
 * connections and the worker's result stream.
 */
bool writeAllFd(int fd, const void *data, size_t n);

/**
 * readSomeFd returns this when the read would block (EAGAIN on a
 * nonblocking fd): the fd is alive, there is just no data yet.
 * Callers must poll again -- treating it as death loses a healthy
 * worker.
 */
inline constexpr long kReadAgainFd = -2;

/**
 * One read from @p fd: byte count, 0 on EOF, kReadAgainFd when the
 * read would block, -1 on a real error. EINTR is retried internally.
 */
long readSomeFd(int fd, void *buf, size_t n);

/**
 * Ignore SIGPIPE process-wide (idempotent): a peer that died mid-frame
 * must surface as EPIPE from write(), not as a fatal signal. Called by
 * Subprocess::spawn and by worker loops writing to their sockets.
 */
void ignoreSigpipe();

/**
 * Absolute path of the running executable (/proc/self/exe); the
 * default worker command re-executes the current binary in worker
 * mode, so masters and workers are always the same build.
 */
std::string selfExePath();

} // namespace finesse

#endif // FINESSE_SUPPORT_SUBPROCESS_H_
