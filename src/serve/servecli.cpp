#include "serve/servecli.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <thread>

#include "core/framework.h"
#include "support/diskcache.h"
#include "support/numparse.h"
#include "support/socket.h"
#include "support/splitlist.h"

namespace finesse {

namespace {

/** Comma-separated 0-based indices, each in [0, @p n). */
std::set<int>
parseIndexList(const std::string &list, size_t n)
{
    std::set<int> out;
    for (const std::string &tok : splitList(list)) {
        const std::optional<int> idx = parseInt(tok, 0);
        if (!idx)
            fatal("bad corrupt index: ", tok);
        if (static_cast<size_t>(*idx) >= n)
            fatal("corrupt index ", *idx, " out of range (n=", n, ")");
        out.insert(*idx);
    }
    if (out.empty())
        fatal("empty corrupt index list");
    return out;
}

/** Request count of a serve command or workload token: >= 1. */
int
parseRequestCount(const std::string &text)
{
    const std::optional<int> n = parseInt(text, 1);
    if (!n)
        fatal("bad request count: ", text);
    return *n;
}

/**
 * One front-end compile before traffic: on a warm artifact cache the
 * traces come off disk and `performed` is ZERO — the serving path
 * then never pays a front-end trace at all.
 */
void
printWarmup(const ServeCliOptions &opts, FILE *to)
{
    const TraceCacheStats before = traceCacheStats();
    Framework fw(opts.curve);
    const CompileResult res = fw.compile(opts.compile);
    const TraceCacheStats after = traceCacheStats();
    const DiskCache *dc = artifactCache();
    std::fprintf(to,
                 "warmup: compiled %zu instrs; traces performed=%zu "
                 "(mem hits=%zu, disk hits=%zu, disk puts=%zu, "
                 "artifact cache %s)\n",
                 res.instrs(),
                 after.tracesPerformed() - before.tracesPerformed(),
                 after.hits - before.hits,
                 after.diskHits - before.diskHits,
                 after.diskPuts - before.diskPuts,
                 dc ? dc->dir().c_str() : "off");
}

void
printStats(FILE *to, const ServeCounters &c)
{
    std::fprintf(to,
                 "stats submitted=%zu rejected_busy=%zu completed=%zu "
                 "accepted=%zu rejected_invalid=%zu batches=%zu "
                 "products=%zu pairings=%zu single_fallbacks=%zu "
                 "bisect_splits=%zu avg_latency_ms=%.3f "
                 "max_latency_ms=%.3f avg_batch_ms=%.3f\n",
                 c.submitted, c.rejectedBusy, c.completed, c.accepted,
                 c.rejectedInvalid, c.batches, c.products, c.pairings,
                 c.singleFallbacks, c.bisectSplits, c.avgLatencyMs(),
                 c.maxLatencyMs,
                 c.batches ? c.totalBatchMs / double(c.batches) : 0.0);
}

/** Submit with client-side backoff: honor retry-after and resubmit. */
Admission
submitWithRetry(ServeEngine &engine, const VerifyRequest &req,
                int &retries)
{
    for (;;) {
        Admission adm = engine.submit(req);
        if (adm.admitted)
            return adm;
        ++retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(adm.retryAfterMs));
    }
}

/** One `bls|kzg|zk N [corrupt=i,j]` command: submit, wait, report. */
void
runKindCommand(ServeEngine &engine, WorkloadFactory &factory,
               const ServeCommand &c, FILE *to)
{
    const int n = c.count;
    int retries = 0;
    std::vector<std::future<Verdict>> futures;
    futures.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        futures.push_back(
            submitWithRetry(engine,
                            factory.make(c.kind, c.corrupt.count(i) > 0),
                            retries)
                .verdict);
    }
    std::string verdicts;
    size_t accepted = 0;
    for (auto &f : futures) {
        const bool ok = f.get() == Verdict::Accept;
        accepted += ok;
        verdicts += ok ? '1' : '0';
    }
    std::fprintf(to,
                 "ok kind=%s n=%d accepted=%zu rejected=%zu retries=%d "
                 "verdicts=%s\n",
                 toString(c.kind), n, accepted,
                 static_cast<size_t>(n) - accepted, retries,
                 verdicts.c_str());
}

/** `flood <kind> N`: no waiting, no backoff — show the bounces. */
void
runFloodCommand(ServeEngine &engine, WorkloadFactory &factory,
                const ServeCommand &c, FILE *to)
{
    int admitted = 0, bounced = 0, lastRetryMs = 0;
    for (int i = 0; i < c.count; ++i) {
        Admission adm = engine.submit(factory.make(c.kind, false));
        if (adm.admitted) {
            admitted++; // future dropped: verdict still computed
        } else {
            bounced++;
            lastRetryMs = adm.retryAfterMs;
        }
    }
    std::fprintf(to,
                 "flood kind=%s n=%d admitted=%d bounced=%d "
                 "retry_after_ms=%d\n",
                 toString(c.kind), c.count, admitted, bounced,
                 lastRetryMs);
}

void
commandLoop(ServeEngine &engine, WorkloadFactory &factory, FILE *in,
            FILE *to)
{
    char *lineBuf = nullptr;
    size_t lineCap = 0;
    using Op = ServeCommand::Op;
    while (getline(&lineBuf, &lineCap, in) >= 0) {
        try {
            const ServeCommand c = parseServeCommand(lineBuf);
            if (c.op == Op::None)
                continue;
            if (c.op == Op::Quit)
                break;
            if (c.op == Op::Submit) {
                runKindCommand(engine, factory, c, to);
            } else if (c.op == Op::Flood) {
                runFloodCommand(engine, factory, c, to);
            } else if (c.op == Op::Stats) {
                printStats(to, engine.counters());
            } else {
                engine.drain();
                std::fprintf(to, "drained completed=%zu\n",
                             engine.counters().completed);
            }
        } catch (const std::exception &e) {
            std::fprintf(to, "err %s\n", e.what());
        }
        std::fflush(to);
    }
    free(lineBuf);
}

} // namespace

ServeCommand
parseServeCommand(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> tok;
    for (std::string t; in >> t;)
        tok.push_back(std::move(t));
    ServeCommand c;
    if (tok.empty() || tok[0][0] == '#')
        return c;
    const std::string &cmd = tok[0];
    size_t used = 1;
    if (cmd == "bls" || cmd == "kzg" || cmd == "zk") {
        if (tok.size() < 2)
            fatal("usage: ", cmd, " N [corrupt=i,j]");
        c.op = ServeCommand::Op::Submit;
        c.kind = parseRequestKind(cmd);
        c.count = parseRequestCount(tok[1]);
        used = 2;
        if (tok.size() > 2 && tok[2].rfind("corrupt=", 0) == 0) {
            c.corrupt = parseIndexList(tok[2].substr(8),
                                       static_cast<size_t>(c.count));
            used = 3;
        }
    } else if (cmd == "flood") {
        if (tok.size() < 3)
            fatal("usage: flood <bls|kzg|zk> N");
        c.op = ServeCommand::Op::Flood;
        c.kind = parseRequestKind(tok[1]);
        c.count = parseRequestCount(tok[2]);
        used = 3;
    } else if (cmd == "stats") {
        c.op = ServeCommand::Op::Stats;
    } else if (cmd == "drain") {
        c.op = ServeCommand::Op::Drain;
    } else if (cmd == "quit") {
        c.op = ServeCommand::Op::Quit;
    } else {
        fatal("unknown command: ", cmd);
    }
    if (tok.size() > used)
        fatal("unexpected argument: ", tok[used]);
    return c;
}

std::vector<std::pair<RequestKind, int>>
parseWorkloadSpec(const std::string &spec)
{
    std::vector<std::pair<RequestKind, int>> out;
    for (const std::string &tok : splitList(spec)) {
        const size_t colon = tok.find(':');
        FINESSE_REQUIRE(colon != std::string::npos,
                        "bad workload token (want kind:count): ", tok);
        const RequestKind kind = parseRequestKind(tok.substr(0, colon));
        out.emplace_back(kind, parseRequestCount(tok.substr(colon + 1)));
    }
    FINESSE_REQUIRE(!out.empty(), "empty workload spec");
    return out;
}

int
runServeCommand(const ServeCliOptions &opts)
{
    printWarmup(opts, stdout);
    const CurveSystem12 &sys = curveSystem12(opts.curve);
    ServeEngine engine(sys, opts.engine);
    WorkloadFactory factory(sys, opts.engine.seed);
    std::printf("serve ready curve=%s batch=%d queue=%d jobs=%d\n",
                opts.curve.c_str(), opts.engine.batchSize,
                opts.engine.maxQueue, engine.lanes());
    std::fflush(stdout);

    FILE *in = stdin, *to = stdout;
    FILE *sockIn = nullptr, *sockOut = nullptr;
    int listenFd = -1;
    if (opts.servePort >= 0) {
        std::string err;
        int boundPort = 0;
        listenFd = tcpListen(HostPort{"127.0.0.1", opts.servePort}, 1,
                             &err, &boundPort);
        if (listenFd < 0) {
            std::fprintf(stderr, "serve: %s\n", err.c_str());
            return 1;
        }
        // Banner = port-discovery contract: port 0 binds a free port
        // and clients read the real one from this line.
        std::printf("serve listening host=127.0.0.1 port=%d\n",
                    boundPort);
        std::fflush(stdout);
        const int fd = tcpAccept(listenFd, -1, &err);
        if (fd < 0) {
            std::fprintf(stderr, "serve: accept: %s\n", err.c_str());
            ::close(listenFd);
            return 1;
        }
        // Two streams over the one socket: mixing reads and writes on
        // a single "r+" stream without repositioning is UB.
        sockIn = fdopen(fd, "r");
        sockOut = fdopen(dup(fd), "w");
        FINESSE_CHECK(sockIn != nullptr && sockOut != nullptr,
                      "fdopen on accepted socket");
        in = sockIn;
        to = sockOut;
    }

    commandLoop(engine, factory, in, to);
    engine.drain();
    printStats(to, engine.counters());
    std::fflush(to);
    if (sockIn)
        std::fclose(sockIn);
    if (sockOut)
        std::fclose(sockOut);
    if (listenFd >= 0)
        ::close(listenFd);
    if (to != stdout) // mirror the final snapshot for the operator log
        printStats(stdout, engine.counters());
    std::printf("serve exit\n");
    return 0;
}

int
runVerifyBatchCommand(const ServeCliOptions &opts)
{
    const CurveSystem12 &sys = curveSystem12(opts.curve);
    const auto mix = parseWorkloadSpec(opts.workload);
    size_t total = 0;
    for (const auto &[kind, count] : mix)
        total += static_cast<size_t>(count);
    const std::set<int> corrupt =
        opts.corrupt.empty() ? std::set<int>{}
                             : parseIndexList(opts.corrupt, total);

    WorkloadFactory factory(sys, opts.engine.seed);
    std::vector<PairingCheck> checks;
    std::vector<RequestKind> kinds;
    for (const auto &[kind, count] : mix) {
        for (int i = 0; i < count; ++i) {
            const int global = static_cast<int>(checks.size());
            checks.push_back(reduceToCheck(
                sys, factory.make(kind, corrupt.count(global) > 0)));
            kinds.push_back(kind);
        }
    }

    // Consecutive --batch chunks, chunk i under the seed the engine
    // gives its i-th batch.
    BatchVerifyStats stats;
    std::vector<bool> batched;
    const size_t batch = static_cast<size_t>(opts.engine.batchSize);
    for (size_t from = 0; from < checks.size(); from += batch) {
        const std::vector<PairingCheck> chunk(
            checks.begin() + from,
            checks.begin() + std::min(checks.size(), from + batch));
        const u64 i = from / batch;
        const std::vector<bool> verdicts =
            verifyBatch(sys, chunk, batchSeed(opts.engine.seed, i), &stats);
        batched.insert(batched.end(), verdicts.begin(), verdicts.end());
    }

    int mismatches = 0;
    size_t accepted = 0;
    for (size_t i = 0; i < checks.size(); ++i) {
        const bool single = verifySingle(sys, checks[i]);
        const bool expected = corrupt.count(static_cast<int>(i)) == 0;
        accepted += batched[i];
        if (batched[i] != single || batched[i] != expected) {
            mismatches++;
            std::fprintf(stderr,
                         "MISMATCH #%zu kind=%s batch=%s single=%s "
                         "expected=%s\n",
                         i, toString(kinds[i]),
                         batched[i] ? "accept" : "reject",
                         single ? "accept" : "reject",
                         expected ? "accept" : "reject");
        }
    }
    std::printf("batches=%zu products=%zu pairings=%zu "
                "single_fallbacks=%zu bisect_splits=%zu\n",
                (checks.size() + batch - 1) / batch, stats.products,
                stats.pairings, stats.singleChecks, stats.bisectSplits);
    std::printf("verify-batch %s n=%zu accepted=%zu rejected=%zu "
                "corrupted=%zu\n",
                mismatches ? "MISMATCH" : "OK", checks.size(), accepted,
                checks.size() - accepted, corrupt.size());
    return mismatches ? 1 : 0;
}

} // namespace finesse
