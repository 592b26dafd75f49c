/**
 * @file
 * POSIX subprocess implementation: pipe + fork + execve, blocking
 * reads with EINTR retry, SIGKILL-on-destruction so a throwing master
 * never leaks worker processes.
 */
#include "support/subprocess.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace finesse {

void
ignoreSigpipe()
{
    static const int once = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return 0;
    }();
    (void)once;
}

bool
writeAllFd(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const long w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Full pipe/socket buffer, not an error: wait for
                // writability and go around. EINTR here just retries
                // the poll.
                pollfd pfd = {fd, POLLOUT, 0};
                (void)::poll(&pfd, 1, -1);
                continue;
            }
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

long
readSomeFd(int fd, void *buf, size_t n)
{
    for (;;) {
        const long r = ::read(fd, buf, n);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return kReadAgainFd;
        }
        return r;
    }
}

Subprocess &
Subprocess::operator=(Subprocess &&other) noexcept
{
    if (this != &other) {
        if (running()) {
            kill(SIGKILL);
            wait();
        }
        closeFd();
        pid_ = other.pid_;
        stdoutFd_ = other.stdoutFd_;
        other.pid_ = -1;
        other.stdoutFd_ = -1;
    }
    return *this;
}

Subprocess::~Subprocess()
{
    if (running()) {
        kill(SIGKILL);
        wait();
    }
    closeFd();
}

void
Subprocess::closeFd()
{
    if (stdoutFd_ >= 0)
        ::close(stdoutFd_);
    stdoutFd_ = -1;
}

void
Subprocess::spawn(const std::vector<std::string> &argv,
                  const std::vector<std::string> &extraEnv)
{
    FINESSE_CHECK(!running(), "subprocess already spawned");
    FINESSE_REQUIRE(!argv.empty(), "subprocess: empty argv");
    ignoreSigpipe();

    // O_CLOEXEC is load-bearing: without it every later-spawned
    // sibling inherits these pipe ends across its exec, holds the
    // write end open, and EOF never reaches the reader. The child's
    // dup2() onto fd 1 clears the flag on the copy it actually uses.
    int outPipe[2]; // child stdout -> parent reads
    if (::pipe2(outPipe, O_CLOEXEC) != 0)
        fatal("subprocess: pipe: ", std::strerror(errno));

    // Build argv/envp before fork: no allocation between fork and exec.
    std::vector<char *> argvp;
    argvp.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        argvp.push_back(const_cast<char *>(a.c_str()));
    argvp.push_back(nullptr);

    // extraEnv entries override same-keyed parent entries: getenv in
    // the child returns the FIRST match, so shadowed parent entries
    // must be dropped, not merely preceded.
    const auto envKeyLen = [](const char *e) {
        const char *eq = std::strchr(e, '=');
        return eq ? static_cast<size_t>(eq - e) : std::strlen(e);
    };
    std::vector<char *> envp;
    for (char **e = environ; e && *e; ++e) {
        const size_t keyLen = envKeyLen(*e);
        bool shadowed = false;
        for (const std::string &x : extraEnv) {
            if (envKeyLen(x.c_str()) == keyLen &&
                std::strncmp(x.c_str(), *e, keyLen) == 0) {
                shadowed = true;
                break;
            }
        }
        if (!shadowed)
            envp.push_back(*e);
    }
    for (const std::string &e : extraEnv)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);

    const int pid = ::fork();
    if (pid < 0) {
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        fatal("subprocess: fork: ", std::strerror(errno));
    }
    if (pid == 0) {
        // Child: wire the pipe to stdout and exec.
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        ::execve(argvp[0], argvp.data(), envp.data());
        // Exec failed; 127 is the conventional "command not found".
        ::_exit(127);
    }

    ::close(outPipe[1]);
    pid_ = pid;
    stdoutFd_ = outPipe[0];
}

long
Subprocess::readSome(void *buf, size_t n)
{
    return readSomeFd(stdoutFd_, buf, n);
}

void
Subprocess::kill(int sig)
{
    if (running())
        ::kill(pid_, sig);
}

int
Subprocess::wait()
{
    if (!running())
        return -1;
    int status = 0;
    for (;;) {
        const int r = ::waitpid(pid_, &status, 0);
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    pid_ = -1;
    return status;
}

bool
Subprocess::exitedCleanly(int waitStatus)
{
    return WIFEXITED(waitStatus) && WEXITSTATUS(waitStatus) == 0;
}

bool
Subprocess::wasSignaled(int waitStatus)
{
    return WIFSIGNALED(waitStatus);
}

int
Subprocess::termSignal(int waitStatus)
{
    return WIFSIGNALED(waitStatus) ? WTERMSIG(waitStatus) : 0;
}

int
Subprocess::exitCode(int waitStatus)
{
    return WIFEXITED(waitStatus) ? WEXITSTATUS(waitStatus) : -1;
}

std::string
selfExePath()
{
    char buf[4096];
    const long n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        fatal("subprocess: readlink /proc/self/exe: ",
              std::strerror(errno));
    return std::string(buf, static_cast<size_t>(n));
}

} // namespace finesse
