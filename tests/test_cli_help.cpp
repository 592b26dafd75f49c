/**
 * @file
 * The --help audit: finesse_cli's help output is generated from the
 * core/cliusage.h tables, and this test closes the loop from both
 * sides. Table -> help: every documented command and flag must be
 * printed. Source -> help: every `--flag` string literal the CLI
 * source actually parses (tools/finesse_cli.cpp) must appear in the
 * help output — so adding a flag without documenting it is a test
 * failure, not silent drift.
 *
 * The audited binary is the real installed target
 * ($<TARGET_FILE:finesse_cli> via FINESSE_CLI_PATH), not a re-link
 * of the parser. The same binary is driven end to end as a TCP
 * server (`serve --serve-port=0`).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/cliusage.h"

using namespace finesse;

namespace {

std::string
runCommand(const std::string &cmd, int *exitCode)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    std::string out;
    char buf[4096];
    size_t got;
    while ((got = fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, got);
    const int status = pclose(pipe);
    *exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
}

std::string
helpOutput()
{
    static std::string cached; // one exec of the binary for the suite
    if (cached.empty()) {
        int rc = -1;
        cached = runCommand(std::string(FINESSE_CLI_PATH) + " --help",
                            &rc);
        EXPECT_EQ(rc, 0) << "--help must exit 0";
    }
    return cached;
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Every quoted `"--flag..."` literal in @p source, with any =value
 * shape stripped: what the parser matches is the part up to the '='.
 */
std::set<std::string>
extractFlagLiterals(const std::string &source)
{
    std::set<std::string> flags;
    for (size_t at = source.find("\"--"); at != std::string::npos;
         at = source.find("\"--", at + 1)) {
        const size_t end = source.find('"', at + 1);
        if (end == std::string::npos)
            break;
        std::string flag = source.substr(at + 1, end - at - 1);
        const size_t eq = flag.find('=');
        if (eq != std::string::npos)
            flag = flag.substr(0, eq);
        // Skip prose that merely mentions a flag mid-string.
        if (flag.find(' ') == std::string::npos)
            flags.insert(flag);
    }
    return flags;
}

/** Every `command == "name"` literal: the dispatched subcommands. */
std::set<std::string>
extractCommandLiterals(const std::string &source)
{
    std::set<std::string> commands;
    const std::string needle = "command == \"";
    for (size_t at = source.find(needle); at != std::string::npos;
         at = source.find(needle, at + 1)) {
        const size_t from = at + needle.size();
        const size_t end = source.find('"', from);
        if (end == std::string::npos)
            break;
        commands.insert(source.substr(from, end - from));
    }
    return commands;
}

} // namespace

TEST(CliHelp, EveryDocumentedCommandIsPrinted)
{
    const std::string help = helpOutput();
    for (const CliDoc &d : kCliCommands) {
        EXPECT_NE(help.find(d.name), std::string::npos)
            << "command missing from --help: " << d.name;
        EXPECT_NE(help.find(d.help), std::string::npos)
            << "help line missing for: " << d.name;
    }
}

TEST(CliHelp, EveryDocumentedFlagIsPrinted)
{
    const std::string help = helpOutput();
    for (const CliDoc &d : kCliFlags) {
        const std::string name(d.name);
        const std::string flag = name.substr(0, name.find('='));
        EXPECT_NE(help.find(flag), std::string::npos)
            << "flag missing from --help: " << flag;
        EXPECT_NE(help.find(d.help), std::string::npos)
            << "help line missing for: " << flag;
    }
}

TEST(CliHelp, EveryParsedFlagIsDocumented)
{
    const std::string help = helpOutput();
    const std::set<std::string> parsed =
        extractFlagLiterals(readFile(FINESSE_CLI_SOURCE));
    ASSERT_GE(parsed.size(), std::size(kCliFlags))
        << "flag extraction went blind";
    for (const std::string &flag : parsed) {
        if (flag == "--") // the unknown-flag catch-all prefix test
            continue;
        EXPECT_NE(help.find(flag), std::string::npos)
            << "flag parsed by the CLI but absent from --help: "
            << flag;
    }
}

TEST(CliHelp, EveryDispatchedCommandIsDocumented)
{
    const std::string help = helpOutput();
    const std::set<std::string> dispatched =
        extractCommandLiterals(readFile(FINESSE_CLI_SOURCE));
    ASSERT_GE(dispatched.size(), 10u) << "command extraction went blind";
    for (const std::string &cmd : dispatched) {
        bool documented = false;
        for (const CliDoc &d : kCliCommands)
            documented = documented || cmd == d.name;
        EXPECT_TRUE(documented)
            << "command dispatched by the CLI but undocumented: "
            << cmd;
        EXPECT_NE(help.find(cmd), std::string::npos);
    }
}

TEST(CliHelp, UsageErrorsAndHelpExitCodes)
{
    int rc = -1;
    runCommand(std::string(FINESSE_CLI_PATH) + " --no-such-flag 2>&1",
               &rc);
    EXPECT_NE(rc, 0) << "unknown flag must be a usage error";
    const std::string err = runCommand(
        std::string(FINESSE_CLI_PATH) + " 2>&1", &rc);
    EXPECT_EQ(rc, 2) << "bare invocation prints usage, exits 2";
    EXPECT_NE(err.find("usage: finesse_cli"), std::string::npos);
    EXPECT_NE(err.find("--help"), std::string::npos);
}

TEST(CliHelp, BadCommandLineFailsBeforeCompiling)
{
    // An unknown command (dse-worker was removed) and a deploy without
    // its image file are usage errors found before any compile.
    for (const char *args : {" dse-worker", " deploy"}) {
        SCOPED_TRACE(args);
        int rc = -1;
        const std::string out = runCommand(
            std::string(FINESSE_CLI_PATH) + args + " 2>&1", &rc);
        EXPECT_EQ(rc, 2);
        EXPECT_NE(out.find("usage: finesse_cli"), std::string::npos);
        EXPECT_EQ(out.find("compiled"), std::string::npos) << out;
    }
}

TEST(CliServe, ServesOneTcpClient)
{
    // `timeout` bounds the server if the test fails before it sends
    // quit; stderr joins stdout so a startup error shows in the log.
    FILE *server = popen(("timeout 300 " + std::string(FINESSE_CLI_PATH) +
                          " serve --serve-port=0 --jobs=1 2>&1")
                             .c_str(),
                         "r");
    ASSERT_NE(server, nullptr);
    std::string log;
    int port = 0;
    char line[512];
    while (port == 0 && std::fgets(line, sizeof line, server)) {
        log += line;
        std::sscanf(line, "serve listening host=127.0.0.1 port=%d", &port);
    }
    ASSERT_GT(port, 0) << "no listening banner:\n" << log;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const timeval recvTimeout = {120, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recvTimeout,
                 sizeof recvTimeout);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
    const std::string script = "bls 2 corrupt=1\nstats\nquit\n";
    ASSERT_EQ(::send(fd, script.data(), script.size(), 0),
              static_cast<ssize_t>(script.size()));
    std::string replies;
    char buf[4096];
    for (ssize_t got; (got = ::recv(fd, buf, sizeof buf, 0)) > 0;)
        replies.append(buf, static_cast<size_t>(got));
    ::close(fd);

    while (std::fgets(line, sizeof line, server))
        log += line;
    const int status = pclose(server);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "status " << status << "\n" << log;

    EXPECT_NE(replies.find("ok kind=bls n=2 accepted=1 rejected=1 "),
              std::string::npos)
        << replies;
    EXPECT_NE(replies.find(" verdicts=10\n"), std::string::npos)
        << replies;
    // The `stats` reply, then the final snapshot after quit.
    const size_t stats = replies.find("stats submitted=2 ");
    ASSERT_NE(stats, std::string::npos) << replies;
    EXPECT_NE(replies.find("stats submitted=2 ", stats + 1),
              std::string::npos)
        << replies;
    EXPECT_NE(log.find("serve exit"), std::string::npos) << log;
}
