/**
 * @file
 * Multi-process sweep tests: Explorer::evaluateAllDistributed must be
 * BIT-identical to evaluateAll for workers in {1, 2, 4} -- across a
 * mixed request set, across the full curve catalog, and under a
 * worker killed with SIGKILL mid-group (the re-dispatch path). Also
 * covers a pool of dead remotes and worker-side deterministic errors.
 *
 * This binary is its own worker pool: main() dispatches argv[1] ==
 * "dse-worker" into the worker loop before gtest sees the command
 * line, so the distributor's default self-re-exec worker command
 * works unchanged. The suite also runs in the tsan CI job (the
 * master's poll loop and the in-worker batched engine under TSan).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "curve/catalog.h"
#include "dse/distributor.h"
#include "dse/explorer.h"
#include "dsepoint_eq.h"
#include "support/socket.h"
#include "support/subprocess.h"

namespace finesse {
namespace {

/**
 * CI's chaos legs rerun this suite with an ambient FINESSE_DSE_FAULT
 * plan in the environment (workers crash/hang/corrupt on a script).
 * The identity contract must hold regardless -- that is the point of
 * the rerun -- but exact counter values (deaths, spawns, retries) are
 * only deterministic fault-free, so those asserts gate on this.
 */
bool
ambientFaults()
{
    return std::getenv(kFaultPlanEnv) != nullptr;
}

/**
 * Mixed request set on BN254N: several trace keys (variants x part),
 * several hardware models per key, and a request with the trace cache
 * disabled (it joins its key's group).
 */
std::vector<DseRequest>
mixedRequests(const Explorer &ex)
{
    std::vector<PipelineModel> models;
    models.emplace_back(); // single-issue deep
    {
        PipelineModel vliw;
        vliw.longLat = 8;
        vliw.shortLat = 2;
        vliw.issueWidth = 3;
        vliw.numLinUnits = 2;
        vliw.numBanks = 3;
        vliw.writebackFifo = true;
        models.push_back(vliw);
    }

    std::vector<DseRequest> reqs;
    const std::vector<VariantConfig> cfgs = {
        ex.allKaratsuba(), ex.allSchoolbook(), ex.manualHeuristic()};
    for (const VariantConfig &cfg : cfgs) {
        for (const PipelineModel &hw : models) {
            DseRequest req;
            req.opt.variants = cfg;
            req.opt.hw = hw;
            req.cores = 2;
            req.label = "grid";
            reqs.push_back(std::move(req));
        }
    }
    {
        // Distinct trace key via part + a cheap trace.
        DseRequest req;
        req.opt.part = TracePart::FinalExpOnly;
        req.label = "finalexp";
        reqs.push_back(std::move(req));
    }
    {
        // Trace cache off: same key, same group, same result.
        DseRequest req;
        req.opt.useTraceCache = false;
        req.label = "uncached";
        reqs.push_back(std::move(req));
    }
    return reqs;
}

TEST(DistributedDse, MatchesEvaluateAllForWorkers124)
{
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = mixedRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        DistributorStats stats;
        DistributorOptions opts;
        opts.stats = &stats;
        const std::vector<DsePoint> got =
            ex.evaluateAllDistributed(reqs, workers, opts);
        expectSamePoints(ref, got);
        EXPECT_GT(stats.groups, 1u);
        if (!ambientFaults()) {
            EXPECT_EQ(stats.workerDeaths, 0);
            EXPECT_EQ(stats.redispatches, 0);
            EXPECT_LE(stats.workersSpawned, workers);
        }
    }
}

/**
 * Spawn `<self> dse-worker --listen=127.0.0.1:0` and return its
 * address, parsed from the stdout banner (the ephemeral-port
 * discovery contract). @p maxAccepts bounds the server's lifetime so
 * wait() below returns. The server is pinned fault-free (an empty
 * FINESSE_DSE_FAULT shadows any ambient plan): under an ambient
 * hang@group:0 it would otherwise hang forever and wait() never
 * return. The master's local slots still run the ambient plan, and
 * its chaos proxy still applies the plan's network terms to these
 * connections.
 */
HostPort
spawnListenWorker(Subprocess &worker, int maxAccepts)
{
    worker.spawn({selfExePath(), "dse-worker", "--listen=127.0.0.1:0",
                  "--max-accepts=" + std::to_string(maxAccepts)},
                 {std::string(kFaultPlanEnv) + "="});
    std::string banner;
    char c;
    while (banner.find('\n') == std::string::npos &&
           worker.readSome(&c, 1) == 1)
        banner.push_back(c);
    const std::string prefix = "dse-worker listening on ";
    EXPECT_EQ(banner.rfind(prefix, 0), 0u) << banner;
    return parseHostPort(banner.substr(
        prefix.size(), banner.size() - prefix.size() - 1));
}

TEST(DistributedDse, RemoteListenWorkerPoolMatchesEvaluateAll)
{
    // End-to-end remote transport: two genuinely separate listen
    // workers (spawned the way an operator would start them, NOT by
    // the distributor) serve a mixed pool alongside one pinned local
    // slot. Identity must hold and all three slots must be used.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = mixedRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    Subprocess workerA, workerB;
    const HostPort a = spawnListenWorker(workerA, 1);
    const HostPort b = spawnListenWorker(workerB, 1);
    ASSERT_GT(a.port, 0);
    ASSERT_GT(b.port, 0);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.hosts = {a.describe(), b.describe(), "local"};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 3, opts);
    expectSamePoints(ref, got);
    if (!ambientFaults()) {
        EXPECT_EQ(stats.remoteConnects, 2);
        EXPECT_EQ(stats.remoteConnectFailures, 0);
        EXPECT_EQ(stats.workerDeaths, 0);
    }
    // max-accepts=1: both servers exit cleanly once the master is
    // done with them -- which also proves the master disconnected.
    EXPECT_EQ(workerA.wait(), 0);
    EXPECT_EQ(workerB.wait(), 0);
}

TEST(DistributedDse, AllRemoteHostsDeadFinishInProcess)
{
    // Every pool entry points at a port that refuses instantly
    // (bind-then-close guarantees nothing listens). Both slots stay
    // dead, so the whole sweep runs in-process -- identical bits.
    std::string err;
    int deadPort = 0;
    HostPort loop;
    loop.host = "127.0.0.1";
    const int probe = tcpListen(loop, 1, &err, &deadPort);
    ASSERT_GE(probe, 0) << err;
    ASSERT_EQ(::close(probe), 0);

    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = mixedRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    const std::string dead =
        "127.0.0.1:" + std::to_string(deadPort);
    opts.hosts = {dead, dead};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_EQ(stats.remoteConnectFailures, 2);
    EXPECT_EQ(stats.remoteConnects, 0);
    EXPECT_EQ(static_cast<size_t>(stats.fallbackGroups), stats.groups);
}

TEST(DistributedDse, MatchesEvaluateAllAcrossFullCatalog)
{
    // Every catalog curve, two hardware models against the default
    // variants (one trace key per curve -> one group per curve, the
    // cheapest full-catalog crossing). Two workers split the groups.
    for (const CurveDef &def : curveCatalog()) {
        SCOPED_TRACE(def.name);
        Explorer ex(def.name);
        std::vector<DseRequest> reqs;
        for (int lin : {1, 2}) {
            DseRequest req;
            req.opt.hw.longLat = 8;
            req.opt.hw.shortLat = 2;
            req.opt.hw.issueWidth = lin > 1 ? lin + 1 : 1;
            req.opt.hw.numLinUnits = lin;
            req.opt.hw.numBanks = req.opt.hw.issueWidth;
            req.opt.hw.writebackFifo = lin > 1;
            req.label = def.name;
            reqs.push_back(std::move(req));
        }
        const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);
        const std::vector<DsePoint> got =
            ex.evaluateAllDistributed(reqs, 2);
        expectSamePoints(ref, got);
    }
}

TEST(DistributedDse, Kill9MidGroupRedispatchesAndStaysIdentical)
{
    // Worker 0 raises SIGKILL on receipt of its first group -- after
    // the master committed the dispatch, i.e. genuinely mid-group --
    // while worker 1 is pinned fault-free. The master must detect the
    // death, re-dispatch that group to the surviving worker, and
    // still return bit-identical results.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = mixedRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"kill@group:0", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    if (!ambientFaults()) {
        EXPECT_EQ(stats.workersSpawned, 2);
        EXPECT_EQ(stats.workerDeaths, 1);
        EXPECT_EQ(stats.redispatches, 1);
        EXPECT_EQ(stats.workersSignaled, 1);
    }
}

TEST(DistributedDse, WorkerSideErrorPropagatesWithoutRetry)
{
    // An unknown curve is a deterministic failure: the worker reports
    // it over the wire (WorkerError frame) and the master propagates
    // instead of burning retries on it. The master never resolves the
    // curve handle (groupByTraceKey keys on the name as given), so
    // the error must travel the wire.
    std::vector<DseRequest> reqs;
    reqs.emplace_back();
    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    EXPECT_THROW(distributeEvaluate("NOT-A-CURVE", reqs, 1, opts),
                 FatalError);
    if (!ambientFaults())
        EXPECT_EQ(stats.redispatches, 0);
}

TEST(DistributedDse, EmptyRequestListReturnsEmpty)
{
    Explorer ex("BN254N");
    EXPECT_TRUE(ex.evaluateAllDistributed({}, 4).empty());
}

TEST(DistributedDse, MoreWorkersThanGroupsIsFine)
{
    Explorer ex("BN254N");
    std::vector<DseRequest> reqs;
    reqs.emplace_back();
    reqs.back().opt.part = TracePart::FinalExpOnly;
    reqs.back().label = "solo";
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);
    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 8, opts);
    expectSamePoints(ref, got);
    if (!ambientFaults())
        EXPECT_EQ(stats.workersSpawned, 1); // capped at group count
}

TEST(DistributedDse, ExploreVariantsDistributedFindsSameBest)
{
    Explorer ex("BN254N");
    CompileOptions base;
    base.jobs = 1;
    const DsePoint serialBest =
        ex.exploreVariants(base, Objective::MinCycles, true);
    base.dseWorkers = 2;
    const DsePoint distBest =
        ex.exploreVariants(base, Objective::MinCycles, true);
    expectSamePoint(serialBest, distBest);
}

} // namespace
} // namespace finesse

/**
 * Worker-aware main: the distributor's default worker command
 * re-executes this binary with argv[1] == "dse-worker"; everything
 * else goes to gtest (this file links GTest::gtest, not gtest_main).
 */
int
main(int argc, char **argv)
{
    if (const std::optional<int> rc =
            finesse::maybeRunDseWorkerMain(argc, argv))
        return *rc;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
