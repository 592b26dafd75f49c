/**
 * @file
 * TCP-layer tests (support/socket.h, the listener under
 * `serve --serve-port`): ephemeral binds, accept with a timeout, the
 * tuning of accepted streams and endpoint formatting. All binds use
 * port 0 so the suite never collides with another process or a
 * parallel ctest shard.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/socket.h"

namespace finesse {
namespace {

using Clock = std::chrono::steady_clock;

/** Bind an ephemeral loopback listener; returns the fd, fills @p port. */
int
listenEphemeral(int *port)
{
    std::string err;
    const int fd = tcpListen(HostPort{"127.0.0.1", 0}, 4, &err, port);
    EXPECT_GE(fd, 0) << err;
    EXPECT_GT(*port, 0);
    return fd;
}

/** A plain blocking client connected to 127.0.0.1:@p port. */
int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
    return fd;
}

TEST(Socket, EphemeralListenReportsItsPortAndAcceptsAConnect)
{
    int port = 0;
    const int listenFd = listenEphemeral(&port);
    const int client = connectLoopback(port);
    std::string err;
    const int server = tcpAccept(listenFd, 2000, &err);
    ASSERT_GE(server, 0) << err;

    // The accepted stream is tuned for small request/reply lines.
    int nodelay = 0;
    socklen_t len = sizeof nodelay;
    ASSERT_EQ(::getsockopt(server, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                           &len),
              0);
    EXPECT_NE(nodelay, 0);

    // Bytes flow both ways through the accepted pair.
    char buf[8] = {};
    ASSERT_EQ(::send(client, "ping", 4, 0), 4);
    ASSERT_EQ(::recv(server, buf, sizeof buf, 0), 4);
    EXPECT_EQ(std::string(buf, 4), "ping");
    ASSERT_EQ(::send(server, "pong", 4, 0), 4);
    ASSERT_EQ(::recv(client, buf, sizeof buf, 0), 4);
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

TEST(Socket, ListenOnABoundPortFailsWithAReason)
{
    int port = 0;
    const int first = listenEphemeral(&port);
    std::string err;
    EXPECT_EQ(tcpListen(HostPort{"127.0.0.1", port}, 1, &err), -1);
    EXPECT_NE(err.find("127.0.0.1:" + std::to_string(port)),
              std::string::npos)
        << err;
    ::close(first);
}

TEST(Socket, DescribeBracketsIpv6Hosts)
{
    EXPECT_EQ((HostPort{"worker7", 9000}).describe(), "worker7:9000");
    EXPECT_EQ((HostPort{"::1", 80}).describe(), "[::1]:80");
}

} // namespace
} // namespace finesse
