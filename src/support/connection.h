/**
 * @file
 * Connection abstraction of the distributed sweep: the master talks to
 * every worker through a `Connection` -- a TCP byte stream plus
 * identity and kill/reap semantics -- and never cares whether the
 * worker is its own child or a process on another host.
 *
 * Two implementations:
 *
 *   - LoopbackTcpConnection: a locally spawned worker. The master
 *     binds an ephemeral loopback listener, spawns
 *     `<self> dse-worker --connect=127.0.0.1:<port>`, and accepts the
 *     child's connection -- a genuine TCP stream with local kill/reap
 *     identity (terminate = SIGKILL + reap), so a local worker is just
 *     a remote worker on 127.0.0.1.
 *   - TcpConnection: a remote `dse-worker --listen=host:port` peer.
 *     terminate() can only close the socket (no pid to signal); the
 *     abandoned remote sees EOF, finishes or discards its group, and
 *     re-listens -- and because its fd is closed master-side, a stale
 *     result can never reach the master, so re-dispatch stays safe.
 *
 * readSome() returns kReadAgainFd when a read would block: the peer
 * is alive, just quiet. Treating that as death is the classic EAGAIN
 * bug this interface exists to centralize away.
 */
#ifndef FINESSE_SUPPORT_CONNECTION_H_
#define FINESSE_SUPPORT_CONNECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "support/socket.h"
#include "support/subprocess.h"

namespace finesse {

/** One master<->worker byte stream with lifecycle semantics. */
class Connection
{
  public:
    virtual ~Connection() = default;

    /** Fd the master poll()s for readability. */
    virtual int pollFd() const = 0;

    /** Whole-buffer write to the worker; false on any real error. */
    virtual bool writeAll(const void *data, size_t n) = 0;

    /**
     * One read from the worker: byte count, 0 on EOF, kReadAgainFd
     * when the read would block (alive, no data), -1 on error.
     */
    virtual long readSome(void *buf, size_t n) = 0;

    /**
     * Half-close the master->worker direction so the worker's next
     * read sees EOF (clean-shutdown signal of the wire protocol); the
     * worker->master direction stays readable.
     */
    virtual void closeWrite() = 0;

    /**
     * Hard stop: SIGKILL + reap a local child, close a remote's
     * socket. Idempotent. Returns true when a local child died by
     * signal (the stats distinguish signaled from exited deaths;
     * remote peers report false -- there is nothing to reap).
     */
    virtual bool terminate() = 0;

    /** Graceful shutdown: closeWrite, then reap/close. Idempotent. */
    virtual void finish() = 0;

    /** Identity for diagnostics: "pid 1234" / "host:port". */
    virtual std::string describe() const = 0;
};

/**
 * Local worker: spawn @p cmd with `--connect=127.0.0.1:P`
 * appended (P = a fresh ephemeral listener) and accept the child's
 * connection within @p acceptTimeoutMs. Returns nullptr with @p err
 * set on listen/accept failure -- the child, if spawned, is killed
 * and reaped first.
 */
std::unique_ptr<Connection>
spawnLoopbackTcpConnection(const std::vector<std::string> &cmd,
                           const std::vector<std::string> &env,
                           int acceptTimeoutMs, std::string *err);

/**
 * Remote worker: connect to a `dse-worker --listen` peer at
 * @p to within @p connectTimeoutMs. Returns nullptr with @p err set
 * on failure (refused, timeout, resolution).
 */
std::unique_ptr<Connection> connectTcpWorker(const HostPort &to,
                                             int connectTimeoutMs,
                                             std::string *err);

} // namespace finesse

#endif // FINESSE_SUPPORT_CONNECTION_H_
