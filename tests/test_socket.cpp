/**
 * @file
 * TCP-layer tests: host:port parsing, ephemeral binds, connect
 * deadlines, refused connections, half-close semantics and the
 * TcpConnection lifecycle (including a listen worker's re-listen
 * after its master disconnects). All binds use port 0 so the suite
 * never collides with another process or a parallel ctest shard.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "dse/distributor.h"
#include "support/connection.h"
#include "support/socket.h"
#include "support/subprocess.h"

namespace finesse {
namespace {

using Clock = std::chrono::steady_clock;

HostPort
loopback(int port)
{
    HostPort hp;
    hp.host = "127.0.0.1";
    hp.port = port;
    return hp;
}

/** Bind an ephemeral listener; returns the fd and fills @p port. */
int
listenEphemeral(int *port)
{
    std::string err;
    const int fd = tcpListen(loopback(0), 4, &err, port);
    EXPECT_GE(fd, 0) << err;
    EXPECT_GT(*port, 0);
    return fd;
}

// ------------------------------------------------------- parseHostPort

TEST(Socket, ParseHostPortAcceptsPlainAndBracketedForms)
{
    const HostPort plain = parseHostPort("worker7:9000");
    EXPECT_EQ(plain.host, "worker7");
    EXPECT_EQ(plain.port, 9000);
    EXPECT_EQ(plain.describe(), "worker7:9000");

    const HostPort v6 = parseHostPort("[::1]:80");
    EXPECT_EQ(v6.host, "::1");
    EXPECT_EQ(v6.port, 80);
    EXPECT_EQ(v6.describe(), "[::1]:80");

    const HostPort ephemeral = parseHostPort("0.0.0.0:0");
    EXPECT_EQ(ephemeral.port, 0);
}

TEST(Socket, ParseHostPortRejectsJunkLoudly)
{
    // A typo'd host list must fail the sweep, not silently shrink the
    // pool -- same loud-failure contract as the fault-plan grammar.
    EXPECT_THROW(parseHostPort(""), FatalError);
    EXPECT_THROW(parseHostPort("hostonly"), FatalError);
    EXPECT_THROW(parseHostPort("host:"), FatalError);
    EXPECT_THROW(parseHostPort(":123"), FatalError);
    EXPECT_THROW(parseHostPort("host:12x"), FatalError);
    EXPECT_THROW(parseHostPort("host:-1"), FatalError);
    EXPECT_THROW(parseHostPort("host:65536"), FatalError);
    EXPECT_THROW(parseHostPort("[::1]"), FatalError);
    EXPECT_THROW(parseHostPort("[::1:80"), FatalError);
}

// ----------------------------------------------------- listen/connect

TEST(Socket, EphemeralListenReportsItsPortAndAcceptsAConnect)
{
    int port = 0;
    const int listenFd = listenEphemeral(&port);

    std::string err;
    const int client = tcpConnect(loopback(port), 2000, &err);
    ASSERT_GE(client, 0) << err;
    const int server = tcpAccept(listenFd, 2000, &err);
    ASSERT_GE(server, 0) << err;

    // Bytes flow both ways through the accepted pair.
    ASSERT_TRUE(writeAllFd(client, "ping", 4));
    char buf[8] = {};
    ASSERT_EQ(readSomeFd(server, buf, sizeof buf), 4);
    EXPECT_EQ(std::string(buf, 4), "ping");
    ASSERT_TRUE(writeAllFd(server, "pong", 4));
    ASSERT_EQ(readSomeFd(client, buf, sizeof buf), 4);
    EXPECT_EQ(std::string(buf, 4), "pong");

    ::close(client);
    ::close(server);
    ::close(listenFd);
}

TEST(Socket, AcceptTimesOutWithEmptyError)
{
    // Timeout is the one non-error failure of tcpAccept: err stays
    // empty so callers can tell "nobody came" from "listener broke".
    int port = 0;
    const int listenFd = listenEphemeral(&port);
    std::string err = "sentinel";
    const auto t0 = Clock::now();
    EXPECT_EQ(tcpAccept(listenFd, 50, &err), -1);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(Clock::now() - t0);
    EXPECT_TRUE(err.empty());
    EXPECT_GE(elapsed.count(), 45);
    ::close(listenFd);
}

TEST(Socket, ConnectToRefusedPortFailsFast)
{
    // Bind-then-close guarantees the port is unused; loopback RST
    // makes the failure immediate, well inside the deadline.
    int port = 0;
    ::close(listenEphemeral(&port));

    std::string err;
    const auto t0 = Clock::now();
    EXPECT_EQ(tcpConnect(loopback(port), 2000, &err), -1);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(Clock::now() - t0);
    EXPECT_FALSE(err.empty());
    EXPECT_LT(elapsed.count(), 1500);
}

TEST(Socket, ConnectDeadlineIsHonored)
{
    // A listener whose backlog is already saturated by unaccepted
    // connects makes further SYNs hang (loopback queues them), so the
    // nonblocking-connect deadline is what returns control. Some
    // kernels grow the queue enough to admit the probe anyway --
    // success and fast failure are both fine; what is being tested is
    // the upper bound on the wait.
    int port = 0;
    std::string err;
    const int listenFd = tcpListen(loopback(0), 1, &err, &port);
    ASSERT_GE(listenFd, 0) << err;
    std::vector<int> cloggers;
    for (int i = 0; i < 16; ++i) {
        const int fd = tcpConnect(loopback(port), 100, &err);
        if (fd < 0)
            break; // backlog finally full
        cloggers.push_back(fd);
    }

    const auto t0 = Clock::now();
    const int probe = tcpConnect(loopback(port), 250, &err);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(Clock::now() - t0);
    EXPECT_LT(elapsed.count(), 2000);
    if (probe >= 0)
        ::close(probe);
    for (int fd : cloggers)
        ::close(fd);
    ::close(listenFd);
}

// ------------------------------------------------- Connection objects

TEST(Socket, TcpConnectionHalfCloseDeliversEofThenDrains)
{
    int port = 0;
    const int listenFd = listenEphemeral(&port);
    std::string err;
    std::unique_ptr<Connection> conn =
        connectTcpWorker(loopback(port), 2000, &err);
    ASSERT_TRUE(conn) << err;
    EXPECT_NE(conn->describe().find("tcp worker"), std::string::npos);
    const int server = tcpAccept(listenFd, 2000, &err);
    ASSERT_GE(server, 0) << err;
    ::close(listenFd);

    // Half-close the master->worker direction: the server sees EOF
    // but its own writes still arrive -- the shutdown contract the
    // graceful finish() path depends on.
    ASSERT_TRUE(conn->writeAll("last", 4));
    conn->closeWrite();
    char buf[8] = {};
    ASSERT_EQ(readSomeFd(server, buf, sizeof buf), 4);
    EXPECT_EQ(readSomeFd(server, buf, sizeof buf), 0); // EOF
    ASSERT_TRUE(writeAllFd(server, "bye", 3));
    ::close(server);

    long r;
    std::string got;
    while ((r = conn->readSome(buf, sizeof buf)) > 0)
        got.append(buf, static_cast<size_t>(r));
    EXPECT_EQ(r, 0); // EOF after the peer's final bytes
    EXPECT_EQ(got, "bye");
    // terminate() on a remote has no pid to signal: never "signaled".
    EXPECT_FALSE(conn->terminate());
}

TEST(Socket, ListenWorkerServesTwoMastersInTurn)
{
    // The re-listen contract: one `dse-worker --listen` process
    // outlives its master. Master 1 connects, handshakes and
    // disconnects; master 2 then connects to the SAME worker and gets
    // a fresh Hello. --max-accepts=2 bounds the server for a clean
    // exit. (This is the unit-level version; the end-to-end identity
    // run lives in test_distributed_dse.cpp.)
    Subprocess worker;
    worker.spawn({selfExePath(), "dse-worker", "--listen=127.0.0.1:0",
                  "--max-accepts=2"},
                 {});

    // Port discovery: parse the stdout banner.
    std::string banner;
    char c;
    while (banner.find('\n') == std::string::npos &&
           worker.readSome(&c, 1) == 1)
        banner.push_back(c);
    const std::string prefix = "dse-worker listening on ";
    ASSERT_EQ(banner.rfind(prefix, 0), 0u) << banner;
    const HostPort at = parseHostPort(
        banner.substr(prefix.size(),
                      banner.size() - prefix.size() - 1));
    ASSERT_GT(at.port, 0);

    for (int master = 0; master < 2; ++master) {
        std::string err;
        std::unique_ptr<Connection> conn =
            connectTcpWorker(at, 5000, &err);
        ASSERT_TRUE(conn) << "master " << master << ": " << err;
        // The worker speaks first: a Hello frame (magic 'FDSE' in the
        // leading bytes) proves a fresh worker loop per session.
        u8 head[4] = {};
        size_t have = 0;
        while (have < sizeof head) {
            const long r =
                conn->readSome(head + have, sizeof head - have);
            if (r == kReadAgainFd)
                continue;
            ASSERT_GT(r, 0);
            have += static_cast<size_t>(r);
        }
        EXPECT_EQ(std::string(reinterpret_cast<char *>(head), 4),
                  "FDSE");
        conn->finish(); // half-close -> worker session ends cleanly
    }
    EXPECT_EQ(worker.wait(), 0); // max-accepts reached: clean exit
}

TEST(Socket, DseWorkerUsageErrorsExitTwo)
{
    // An out-of-range --max-accepts is junk, not a count truncated to
    // int (4294967296 would wrap to 0 and serve nobody), and a worker
    // needs exactly one of --listen / --connect: each is a usage
    // error that exits 2 before anything is bound or dialed.
    const std::vector<std::vector<std::string>> cases = {
        {"--listen=127.0.0.1:0", "--max-accepts=4294967296"},
        {},
        {"--listen=127.0.0.1:0", "--connect=127.0.0.1:1"},
    };
    for (const std::vector<std::string> &flags : cases) {
        std::vector<std::string> argv = {selfExePath(), "dse-worker"};
        std::string trace = "dse-worker";
        for (const std::string &f : flags) {
            argv.push_back(f);
            trace += " " + f;
        }
        SCOPED_TRACE(trace);
        Subprocess worker;
        worker.spawn(argv, {});
        EXPECT_EQ(Subprocess::exitCode(worker.wait()), 2);
    }
}

TEST(Socket, LoopbackSpawnDetectsAChildThatNeverConnects)
{
    // `/bin/true` exits without dialing back: the accept deadline
    // must fire, reap the child and surface an error -- not hang or
    // leak a zombie.
    std::string err;
    const auto t0 = Clock::now();
    std::unique_ptr<Connection> conn =
        spawnLoopbackTcpConnection({"/bin/true"}, {}, 200, &err);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(Clock::now() - t0);
    EXPECT_EQ(conn, nullptr);
    EXPECT_FALSE(err.empty());
    EXPECT_LT(elapsed.count(), 5000);
}

} // namespace
} // namespace finesse

int
main(int argc, char **argv)
{
    // The listen-worker and usage tests re-exec this binary as a
    // worker.
    if (const std::optional<int> rc =
            finesse::maybeRunDseWorkerMain(argc, argv))
        return *rc;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
