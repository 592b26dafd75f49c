/**
 * @file
 * Minimal TCP socket layer for the distributed sweep's network
 * transport: nonblocking connect() with a hard deadline, accept()
 * with a timeout, and listener setup with ephemeral-port support.
 * Every descriptor is created O_CLOEXEC (a worker exec must never
 * inherit a master's sockets), every accepted/connected stream gets
 * TCP_NODELAY (the wire protocol is small request/response frames;
 * Nagle would serialize dispatch round trips) and SO_KEEPALIVE (a
 * peer that vanishes without FIN eventually surfaces as an error
 * instead of a silent forever-hang), and every call retries EINTR
 * against its deadline instead of failing.
 *
 * Error contract: functions return -1 and fill @p err with a
 * human-readable reason; they never throw (the distributor treats a
 * failed connect as a dead slot, not a fatal), except
 * parseHostPort, whose malformed input is a configuration error.
 */
#ifndef FINESSE_SUPPORT_SOCKET_H_
#define FINESSE_SUPPORT_SOCKET_H_

#include <string>

#include "support/common.h"

namespace finesse {

/** One "host:port" endpoint of the remote worker pool. */
struct HostPort
{
    std::string host;
    int port = 0; ///< 0 = ephemeral (listeners only)

    std::string describe() const;
};

/**
 * Parse "host:port" (port required, 0..65535; "[v6::addr]:port" for
 * IPv6 literals). Throws FatalError on malformed input -- a typo in a
 * host list must fail loudly, not silently shrink the pool.
 */
HostPort parseHostPort(const std::string &spec);

/**
 * Create a listening TCP socket bound to @p at (SO_REUSEADDR so
 * restarted workers rebind immediately; port 0 binds an ephemeral
 * port). Returns the listener fd, or -1 with @p err set. When
 * @p boundPort is non-null it receives the actual bound port --
 * the ephemeral-port answer tests and the worker's "listening on"
 * banner need.
 */
int tcpListen(const HostPort &at, int backlog, std::string *err,
              int *boundPort = nullptr);

/**
 * Accept one connection from @p listenFd, waiting at most
 * @p timeoutMs (-1 = forever). Returns the tuned (NODELAY/KEEPALIVE/
 * CLOEXEC) stream fd; -1 with @p err EMPTY on timeout, -1 with
 * @p err set on a real error.
 */
int tcpAccept(int listenFd, int timeoutMs, std::string *err);

/**
 * Connect to @p to with a hard deadline of @p timeoutMs: the socket
 * is nonblocking during connect (a black-holed host costs the
 * deadline, not the kernel's multi-minute SYN retry budget) and
 * switched back to blocking once established. Returns the tuned
 * stream fd, or -1 with @p err set (timeout included).
 */
int tcpConnect(const HostPort &to, int timeoutMs, std::string *err);

} // namespace finesse

#endif // FINESSE_SUPPORT_SOCKET_H_
