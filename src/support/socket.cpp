/**
 * @file
 * TCP socket layer implementation: getaddrinfo-driven listener
 * setup and a poll()-bounded accept that retries EINTR against its
 * deadline.
 */
#include "support/socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace finesse {

namespace {

using Clock = std::chrono::steady_clock;

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
}

/** Remaining ms until @p deadline; <0 when expired. -1 stays -1. */
int
remainingMs(Clock::time_point deadline, bool infinite)
{
    if (infinite)
        return -1;
    const i64 ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - Clock::now())
                       .count();
    return ms > 0 ? static_cast<int>(std::min<i64>(ms, 1 << 30)) : 0;
}

/** NODELAY + KEEPALIVE on an established stream; false on error. */
bool
tuneStream(int fd, std::string *err)
{
    int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) !=
        0) {
        setErr(err, std::string("setsockopt TCP_NODELAY: ") +
                        std::strerror(errno));
        return false;
    }
    if (::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one) !=
        0) {
        setErr(err, std::string("setsockopt SO_KEEPALIVE: ") +
                        std::strerror(errno));
        return false;
    }
    return true;
}

/** getaddrinfo for a listening stream socket; nullptr + err on failure. */
addrinfo *
resolve(const HostPort &hp, std::string *err)
{
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_ADDRCONFIG | AI_PASSIVE;
    const std::string service = std::to_string(hp.port);
    addrinfo *res = nullptr;
    const int rc =
        ::getaddrinfo(hp.host.empty() ? nullptr : hp.host.c_str(),
                      service.c_str(), &hints, &res);
    if (rc != 0) {
        setErr(err, "resolve " + hp.describe() + ": " +
                        ::gai_strerror(rc));
        return nullptr;
    }
    return res;
}

} // namespace

std::string
HostPort::describe() const
{
    const bool v6 = host.find(':') != std::string::npos;
    return (v6 ? "[" + host + "]" : host) + ":" + std::to_string(port);
}

int
tcpListen(const HostPort &at, int backlog, std::string *err,
          int *boundPort)
{
    addrinfo *res = resolve(at, err);
    if (!res)
        return -1;
    std::string lastErr = "no usable address";
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, backlog) != 0) {
            lastErr = std::string("bind/listen ") + at.describe() +
                      ": " + std::strerror(errno);
            ::close(fd);
            fd = -1;
            continue;
        }
        break;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        setErr(err, lastErr);
        return -1;
    }
    if (boundPort) {
        sockaddr_storage ss;
        socklen_t len = sizeof ss;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss),
                          &len) != 0) {
            setErr(err, std::string("getsockname: ") +
                            std::strerror(errno));
            ::close(fd);
            return -1;
        }
        if (ss.ss_family == AF_INET)
            *boundPort = ntohs(
                reinterpret_cast<sockaddr_in *>(&ss)->sin_port);
        else
            *boundPort = ntohs(
                reinterpret_cast<sockaddr_in6 *>(&ss)->sin6_port);
    }
    return fd;
}

int
tcpAccept(int listenFd, int timeoutMs, std::string *err)
{
    setErr(err, "");
    const bool infinite = timeoutMs < 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(infinite ? 0
                                                          : timeoutMs);
    for (;;) {
        pollfd pfd = {listenFd, POLLIN, 0};
        const int rc =
            ::poll(&pfd, 1, remainingMs(deadline, infinite));
        if (rc < 0) {
            if (errno == EINTR)
                continue; // deadline recomputed above
            setErr(err, std::string("poll: ") + std::strerror(errno));
            return -1;
        }
        if (rc == 0)
            return -1; // timeout: err stays empty
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0) {
            // The pending connection can evaporate between poll and
            // accept (peer RST) -- go around, it is not an error.
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK || errno == ECONNABORTED)
                continue;
            setErr(err,
                   std::string("accept: ") + std::strerror(errno));
            return -1;
        }
        if (!tuneStream(fd, err)) {
            ::close(fd);
            return -1;
        }
        return fd;
    }
}

} // namespace finesse
