/**
 * @file
 * Connection implementations. The loopback accept path is the subtle
 * one: the child may die before connecting (exec failure, instant
 * fault plan), so the accept timeout doubles as the failure detector
 * -- on timeout the child is killed and reaped, never leaked.
 */
#include "support/connection.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

namespace finesse {

namespace {

/** Socket data path shared by the local and remote connections. */
class SocketStream
{
  public:
    explicit SocketStream(int fd) : fd_(fd) {}

    ~SocketStream() { closeFd(); }

    int fd() const { return fd_; }

    bool
    writeAll(const void *data, size_t n)
    {
        return fd_ >= 0 && writeAllFd(fd_, data, n);
    }

    long
    readSome(void *buf, size_t n)
    {
        return fd_ >= 0 ? readSomeFd(fd_, buf, n) : 0;
    }

    void
    closeWrite()
    {
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_WR);
    }

    void
    closeFd()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_;
};

class LoopbackTcpConnection final : public Connection
{
  public:
    LoopbackTcpConnection(Subprocess proc, int fd)
        : proc_(std::move(proc)), stream_(fd)
    {}

    int pollFd() const override { return stream_.fd(); }

    bool
    writeAll(const void *data, size_t n) override
    {
        return stream_.writeAll(data, n);
    }

    long
    readSome(void *buf, size_t n) override
    {
        return stream_.readSome(buf, n);
    }

    void closeWrite() override { stream_.closeWrite(); }

    bool
    terminate() override
    {
        stream_.closeFd();
        if (!proc_.running())
            return false;
        proc_.kill(SIGKILL);
        return Subprocess::wasSignaled(proc_.wait());
    }

    void
    finish() override
    {
        if (proc_.running()) {
            // EOF on the socket is the worker's shutdown signal.
            stream_.closeWrite();
            proc_.wait();
        }
        stream_.closeFd();
    }

    std::string
    describe() const override
    {
        std::ostringstream os;
        os << "loopback-tcp worker pid " << proc_.pid();
        return os.str();
    }

  private:
    Subprocess proc_;
    SocketStream stream_;
};

class TcpConnection final : public Connection
{
  public:
    TcpConnection(int fd, HostPort peer)
        : stream_(fd), peer_(std::move(peer))
    {}

    int pollFd() const override { return stream_.fd(); }

    bool
    writeAll(const void *data, size_t n) override
    {
        return stream_.writeAll(data, n);
    }

    long
    readSome(void *buf, size_t n) override
    {
        return stream_.readSome(buf, n);
    }

    void closeWrite() override { stream_.closeWrite(); }

    bool
    terminate() override
    {
        // No pid to signal on a remote host: closing the socket is
        // the whole kill. The remote sees EOF/EPIPE and re-listens;
        // its in-flight result has nowhere to land, so re-dispatching
        // the group elsewhere cannot double-merge.
        stream_.closeFd();
        return false;
    }

    void
    finish() override
    {
        stream_.closeWrite();
        // Drain until the peer's EOF so its final result write never
        // hits a reset socket; bound by the peer closing in response
        // to our half-close.
        char sink[4096];
        for (;;) {
            const long r = stream_.readSome(sink, sizeof sink);
            if (r == kReadAgainFd)
                continue;
            if (r <= 0)
                break;
        }
        stream_.closeFd();
    }

    std::string
    describe() const override
    {
        return "tcp worker " + peer_.describe();
    }

  private:
    SocketStream stream_;
    HostPort peer_;
};

} // namespace

std::unique_ptr<Connection>
spawnLoopbackTcpConnection(const std::vector<std::string> &cmd,
                           const std::vector<std::string> &env,
                           int acceptTimeoutMs, std::string *err)
{
    HostPort loop;
    loop.host = "127.0.0.1";
    loop.port = 0;
    int boundPort = 0;
    const int listenFd = tcpListen(loop, 1, err, &boundPort);
    if (listenFd < 0)
        return nullptr;

    std::vector<std::string> argv = cmd;
    argv.push_back("--connect=127.0.0.1:" + std::to_string(boundPort));
    Subprocess proc;
    try {
        proc.spawn(argv, env);
    } catch (const FatalError &e) {
        ::close(listenFd);
        if (err)
            *err = e.what();
        return nullptr;
    }

    const int fd = tcpAccept(listenFd, acceptTimeoutMs, err);
    ::close(listenFd); // one master, one child: the listener is done
    if (fd < 0) {
        if (err && err->empty())
            *err = "loopback worker did not connect within " +
                   std::to_string(acceptTimeoutMs) + "ms";
        proc.kill(SIGKILL);
        proc.wait();
        return nullptr;
    }
    return std::make_unique<LoopbackTcpConnection>(std::move(proc), fd);
}

std::unique_ptr<Connection>
connectTcpWorker(const HostPort &to, int connectTimeoutMs,
                 std::string *err)
{
    const int fd = tcpConnect(to, connectTimeoutMs, err);
    if (fd < 0)
        return nullptr;
    return std::make_unique<TcpConnection>(fd, to);
}

} // namespace finesse
