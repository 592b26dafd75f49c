/**
 * @file
 * TCP socket layer implementation. The connect path is the
 * deliberately fussy part: socket(SOCK_NONBLOCK) + connect() +
 * poll(POLLOUT) against a deadline recomputed across EINTR, then
 * getsockopt(SO_ERROR) to learn the real outcome -- a POLLOUT wake
 * means "connect finished", not "connect succeeded".
 */
#include "support/socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/numparse.h"

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

bool
setBlocking(int fd, bool blocking, std::string *err)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) {
        setErr(err,
               std::string("fcntl F_GETFL: ") + std::strerror(errno));
        return false;
    }
    const int want =
        blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
    if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
        setErr(err,
               std::string("fcntl F_SETFL: ") + std::strerror(errno));
        return false;
    }
    return true;
}

/** getaddrinfo for a stream socket; nullptr + err on failure. */
addrinfo *
resolve(const HostPort &hp, bool forListen, std::string *err)
{
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_ADDRCONFIG;
    if (forListen)
        hints.ai_flags |= AI_PASSIVE;
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

HostPort
parseHostPort(const std::string &spec)
{
    HostPort hp;
    size_t colon;
    if (!spec.empty() && spec[0] == '[') {
        // Bracketed IPv6 literal: [::1]:9000.
        const size_t close = spec.find(']');
        if (close == std::string::npos || close + 1 >= spec.size() ||
            spec[close + 1] != ':')
            fatal("bad host:port '", spec, "' (expected [v6]:port)");
        hp.host = spec.substr(1, close - 1);
        colon = close + 1;
    } else {
        colon = spec.rfind(':');
        if (colon == std::string::npos || colon == 0)
            fatal("bad host:port '", spec, "' (expected host:port)");
        hp.host = spec.substr(0, colon);
        // An unbracketed second colon means a bare IPv6 literal, which
        // is ambiguous with the port separator.
        if (hp.host.find(':') != std::string::npos)
            fatal("bad host:port '", spec,
                  "' (bracket IPv6 literals: [addr]:port)");
    }
    const std::string portText = spec.substr(colon + 1);
    const std::optional<int> port = parseInt(portText, 0, 65535);
    if (!port)
        fatal("bad port '", portText, "' in '", spec, "'");
    hp.port = *port;
    return hp;
}

int
tcpListen(const HostPort &at, int backlog, std::string *err,
          int *boundPort)
{
    addrinfo *res = resolve(at, true, err);
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

int
tcpConnect(const HostPort &to, int timeoutMs, std::string *err)
{
    addrinfo *res = resolve(to, false, err);
    if (!res)
        return -1;
    const bool infinite = timeoutMs < 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(infinite ? 0
                                                          : timeoutMs);
    std::string lastErr = "no usable address";
    int fd = -1;
    for (addrinfo *ai = res; ai && fd < 0; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family,
                      ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                      ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int rc;
        do {
            rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0 && errno == EINPROGRESS) {
            // Nonblocking connect in flight: POLLOUT fires when it
            // RESOLVES; SO_ERROR then says how.
            for (;;) {
                pollfd pfd = {fd, POLLOUT, 0};
                rc = ::poll(&pfd, 1, remainingMs(deadline, infinite));
                if (rc < 0 && errno == EINTR)
                    continue;
                break;
            }
            if (rc == 0) {
                lastErr = "connect " + to.describe() + ": timed out";
                rc = -1;
            } else if (rc > 0) {
                int soerr = 0;
                socklen_t len = sizeof soerr;
                if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr,
                                 &len) != 0)
                    soerr = errno;
                if (soerr == 0) {
                    rc = 0;
                } else {
                    lastErr = "connect " + to.describe() + ": " +
                              std::strerror(soerr);
                    rc = -1;
                }
            } else {
                lastErr =
                    std::string("poll: ") + std::strerror(errno);
            }
        } else if (rc < 0) {
            lastErr = "connect " + to.describe() + ": " +
                      std::strerror(errno);
        }
        if (rc < 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        setErr(err, lastErr);
        return -1;
    }
    if (!setBlocking(fd, true, err) || !tuneStream(fd, err)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace finesse
