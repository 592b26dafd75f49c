/**
 * @file
 * Minimal TCP socket layer for `serve --serve-port`: listener setup
 * with ephemeral-port support and accept() with a timeout. Every
 * descriptor is created O_CLOEXEC, every accepted stream gets
 * TCP_NODELAY (the serve protocol is small request/response lines;
 * Nagle would delay each reply) and SO_KEEPALIVE (a peer that
 * vanishes without FIN eventually surfaces as an error instead of a
 * silent forever-hang), and accept retries EINTR against its
 * deadline instead of failing.
 *
 * Error contract: functions return -1 and fill @p err with a
 * human-readable reason; they never throw.
 */
#ifndef FINESSE_SUPPORT_SOCKET_H_
#define FINESSE_SUPPORT_SOCKET_H_

#include <string>

#include "support/common.h"

namespace finesse {

/** One "host:port" endpoint. */
struct HostPort
{
    std::string host;
    int port = 0; ///< 0 = ephemeral (listeners only)

    std::string describe() const;
};

/**
 * Create a listening TCP socket bound to @p at (SO_REUSEADDR so a
 * restarted server rebinds immediately; port 0 binds an ephemeral
 * port). Returns the listener fd, or -1 with @p err set. When
 * @p boundPort is non-null it receives the actual bound port --
 * the ephemeral-port answer tests and serve's "listening" banner
 * need.
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

} // namespace finesse

#endif // FINESSE_SUPPORT_SOCKET_H_
