/**
 * @file
 * Chaos-injection suite for the fault-tolerant distributed sweep:
 * scripted worker faults (FINESSE_DSE_FAULT plans -- crash, hang,
 * stream corruption, stalls, handshake mismatches) against the
 * master's liveness deadlines, retry/backoff and local-fallback
 * machinery. The determinism contract is
 * asserted throughout: for any survivable fault plan the sweep
 * returns results BIT-identical to Explorer::evaluateAll.
 *
 * Every test pins explicit per-slot fault plans (which shadow any
 * ambient FINESSE_DSE_FAULT from CI's chaos matrix), so the asserted
 * counters are deterministic here even when the rest of the test run
 * is executing under ambient chaos.
 *
 * Like test_distributed_dse, this binary is its own worker pool:
 * main() dispatches argv[1] == "dse-worker" into the worker loop
 * before gtest sees the command line.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "dse/distributor.h"
#include "dse/explorer.h"
#include "dsepoint_eq.h"

namespace finesse {
namespace {

/**
 * Three trace-key groups (distinct variant configs) of two hardware
 * models each, on the cheap final-exponentiation-only trace: enough
 * groups for re-dispatch to have somewhere to go, small
 * enough that the chaos matrix stays fast.
 */
std::vector<DseRequest>
smallRequests(const Explorer &ex)
{
    std::vector<PipelineModel> models;
    models.emplace_back();
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
        ex.allSchoolbook(), ex.allKaratsuba(), ex.manualHeuristic()};
    for (const VariantConfig &cfg : cfgs) {
        for (const PipelineModel &hw : models) {
            DseRequest req;
            req.opt.part = TracePart::FinalExpOnly;
            req.opt.variants = cfg;
            req.opt.hw = hw;
            req.label = "chaos";
            reqs.push_back(std::move(req));
        }
    }
    return reqs;
}

TEST(ChaosDse, FaultPlanParsesTheFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "kill@group:2;hang@group:1;garbage@frame:3;"
        "stall_ms=500@group:0;bad_version@hello;bad_hash@hello");
    ASSERT_EQ(plan.actions.size(), 6u);

    EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::Kill);
    EXPECT_EQ(plan.actions[0].site, FaultAction::Site::Group);
    EXPECT_EQ(plan.actions[0].index, 2);

    EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::Hang);
    EXPECT_EQ(plan.actions[1].index, 1);

    EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::Garbage);
    EXPECT_EQ(plan.actions[2].site, FaultAction::Site::Frame);
    EXPECT_EQ(plan.actions[2].index, 3);

    EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::Stall);
    EXPECT_EQ(plan.actions[3].stallMs, 500);
    EXPECT_EQ(plan.actions[3].index, 0);

    EXPECT_EQ(plan.actions[4].kind,
              FaultAction::Kind::BadHelloVersion);
    EXPECT_EQ(plan.actions[4].site, FaultAction::Site::Hello);
    EXPECT_EQ(plan.actions[5].kind, FaultAction::Kind::BadHelloHash);

    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(ChaosDse, FaultPlanParsesTheNetworkGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "drop@frame:2;trunc@frame:1;delay_ms=250@frame:0;"
        "refuse@connect");
    ASSERT_EQ(plan.actions.size(), 4u);

    EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::Drop);
    EXPECT_EQ(plan.actions[0].site, FaultAction::Site::Frame);
    EXPECT_EQ(plan.actions[0].index, 2);

    EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::Truncate);

    EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::Delay);
    EXPECT_EQ(plan.actions[2].stallMs, 250);

    EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::Refuse);
    EXPECT_EQ(plan.actions[3].site, FaultAction::Site::Connect);

    for (const FaultAction &fa : plan.actions)
        EXPECT_TRUE(fa.isNetworkKind());
    EXPECT_FALSE(FaultPlan::parse("kill@group:0")
                     .actions[0]
                     .isNetworkKind());
}

TEST(ChaosDse, FaultPlanKeepSplitsWorkerAndNetworkKinds)
{
    // One spec scripting both sides: keep(false) is the worker's half,
    // keep(true) the chaos proxy's -- together they partition the plan.
    const FaultPlan plan = FaultPlan::parse(
        "kill@group:1;drop@frame:2;stall_ms=10@group:0;refuse@connect");
    const FaultPlan worker = plan.keep(false);
    const FaultPlan network = plan.keep(true);
    ASSERT_EQ(worker.actions.size(), 2u);
    EXPECT_EQ(worker.actions[0].kind, FaultAction::Kind::Kill);
    EXPECT_EQ(worker.actions[1].kind, FaultAction::Kind::Stall);
    ASSERT_EQ(network.actions.size(), 2u);
    EXPECT_EQ(network.actions[0].kind, FaultAction::Kind::Drop);
    EXPECT_EQ(network.actions[1].kind, FaultAction::Kind::Refuse);
    EXPECT_EQ(worker.actions.size() + network.actions.size(),
              plan.actions.size());
}

TEST(ChaosDse, FaultPlanRejectsJunk)
{
    EXPECT_THROW(FaultPlan::parse("kill"), FatalError);
    EXPECT_THROW(FaultPlan::parse("boom@group:1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("kill@group:x"), FatalError);
    EXPECT_THROW(FaultPlan::parse("kill@group:-1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall_ms=@group:0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("kill@nowhere:3"), FatalError);
    EXPECT_THROW(FaultPlan::parse("delay_ms=@frame:0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("refuse@connect:x"), FatalError);
    // Each slot connects once: an indexed connect site could never fire.
    EXPECT_THROW(FaultPlan::parse("refuse@connect:3"), FatalError);
    // Out of int range: junk, not a wrapped-around index 0.
    EXPECT_THROW(FaultPlan::parse("kill@group:4294967296"), FatalError);
}

TEST(ChaosDse, FaultActionsFireOnce)
{
    FaultPlan plan = FaultPlan::parse("kill@group:1");
    EXPECT_EQ(plan.fire(FaultAction::Site::Group, 0), nullptr);
    FaultAction *fa = plan.fire(FaultAction::Site::Group, 1);
    ASSERT_NE(fa, nullptr);
    EXPECT_EQ(fa->kind, FaultAction::Kind::Kill);
    EXPECT_EQ(plan.fire(FaultAction::Site::Group, 1), nullptr);
}

TEST(ChaosDse, HungWorkerIsTimedOutKilledAndRedispatched)
{
    // The ROADMAP's founding complaint: a hung worker delivers no EOF,
    // so PR 5's infinite poll() would wedge forever. Slot 0 hangs on
    // its first group WITHOUT heartbeats; the master must hit its
    // liveness deadline, SIGKILL + reap the worker, re-dispatch the
    // group, and still return bit-identical results.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"hang@group:0", ""};
    opts.livenessTimeoutMs = 1000;
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.timeoutKills, 1);
    EXPECT_GE(stats.redispatches, 1);
    EXPECT_GE(stats.workerDeaths, 1);
    EXPECT_GE(stats.pingsSent, 1); // probed before the deadline
    EXPECT_EQ(stats.fallbackGroups, 0);
}

TEST(ChaosDse, HeartbeatingStragglerIsWaitedFor)
{
    // Slot 0 stalls on its first group for twice the liveness window
    // WITH heartbeats: a slow but live worker keeps its group until it
    // answers -- no kill, no re-dispatch, no duplicate dispatch.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"stall_ms=2000@group:0", ""};
    opts.livenessTimeoutMs = 1000;
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_EQ(stats.timeoutKills, 0);
    EXPECT_EQ(stats.redispatches, 0);
    EXPECT_EQ(stats.workerDeaths, 0);
    EXPECT_EQ(static_cast<size_t>(stats.dispatches), stats.groups);
    EXPECT_GE(stats.pongsReceived, 1); // it WAS heartbeating
}

TEST(ChaosDse, MalformedLivenessEnvIsFatal)
{
    // FINESSE_DSE_LIVENESS_MS must be a positive integer of ms: "2s"
    // once silently meant the 10 s default. The error names the
    // variable and fires before any worker is spawned.
    const char *prev = std::getenv(kLivenessEnv);
    const std::string saved = prev ? prev : "";

    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    for (const char *text : {"2s", "0", "-5", "1.5", "4294967296"}) {
        SCOPED_TRACE(text);
        ASSERT_EQ(setenv(kLivenessEnv, text, 1), 0);
        DistributorStats stats;
        DistributorOptions opts;
        opts.stats = &stats;
        try {
            ex.evaluateAllDistributed(reqs, 2, opts);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(kLivenessEnv),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(stats.workersSpawned, 0);
    }

    if (prev)
        ASSERT_EQ(setenv(kLivenessEnv, saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv(kLivenessEnv), 0);
}

TEST(ChaosDse, AllWorkersDeadFallsBackToLocalEvaluation)
{
    // Every worker crashes on its first group and nothing replaces
    // it: the sweep finishes in-process -- correct results, no throw,
    // and no group is re-dispatched past its retry bound.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"kill@group:0"};
    opts.maxGroupRetries = 1;
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.fallbackGroups, 1);
    EXPECT_EQ(stats.workerDeaths, 2);
    EXPECT_LE(static_cast<size_t>(stats.redispatches),
              static_cast<size_t>(opts.maxGroupRetries) * stats.groups);
}

TEST(ChaosDse, BadHelloVersionIsRejectedAtSpawn)
{
    // Both slots announce a wrong protocol version: the master rejects
    // them before dispatching anything and, with no admissible pool,
    // completes the sweep locally.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"bad_version@hello"};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.handshakeFailures, 1);
    EXPECT_EQ(stats.dispatches, 0); // rejected before ANY dispatch
    EXPECT_EQ(static_cast<size_t>(stats.fallbackGroups),
              stats.groups);
}

TEST(ChaosDse, BadCatalogHashWorkerIsRejectedOthersFinish)
{
    // Slot 0 announces a wrong curve-catalog hash (a heterogeneous
    // build); slot 1 is clean and does all the work.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"bad_hash@hello", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.handshakeFailures, 1);
    EXPECT_EQ(stats.fallbackGroups, 0); // slot 1 carried the sweep
}

TEST(ChaosDse, CrashedLastWorkerLeavesTheRestInProcess)
{
    // A single-slot pool whose worker crashes on its SECOND group: it
    // completes one group and dies, nothing replaces it, and the two
    // groups left finish in-process. Deterministic bookkeeping: 3
    // groups, one done remotely.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"kill@group:1"};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 1, opts);
    expectSamePoints(ref, got);
    EXPECT_EQ(stats.workersSpawned, 1);
    EXPECT_EQ(stats.workerDeaths, 1);
    EXPECT_EQ(stats.redispatches, 1); // re-queued, then nobody to run it
    ASSERT_EQ(stats.groups, 3u);
    EXPECT_EQ(stats.fallbackGroups, 2);
}

TEST(ChaosDse, GarbageStreamPoisonsTheWorkerNotTheSweep)
{
    // Slot 0 answers its first group with unparseable junk: the master
    // must poison exactly that worker, re-dispatch, and survive.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"garbage@group:0", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.workerDeaths, 1);
    EXPECT_GE(stats.redispatches, 1);
}

// ------------------------------------------------- network faults

TEST(ChaosDse, DelayedFramesAreHarmless)
{
    // delay_ms on the Hello frame: the handshake arrives late but
    // inside its window. Pure-latency faults must cost nothing --
    // no deaths, no retries, identical bits -- and the injection
    // counter proves the proxy actually held the frame.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"", ""}; // pin slots fault-free
    opts.networkFaultPlans = {"delay_ms=200@frame:0", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_EQ(stats.networkFaultsInjected, 1);
    EXPECT_EQ(stats.workerDeaths, 0);
    EXPECT_EQ(stats.redispatches, 0);
}

TEST(ChaosDse, DroppedConnectionMidFrameIsRedispatched)
{
    // drop@frame:1: the proxy forwards half a frame then closes --
    // a connection reset mid-result. The master sees EOF inside a
    // frame, declares the worker dead and re-dispatches; slot 1
    // (fault-free) carries the sweep.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"", ""};
    opts.networkFaultPlans = {"drop@frame:1", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.networkFaultsInjected, 1);
    EXPECT_GE(stats.workerDeaths, 1);
    EXPECT_GE(stats.redispatches, 1);
}

TEST(ChaosDse, TruncatedFrameDesyncsAndPoisonsTheStream)
{
    // trunc@frame:1: half a frame arrives and the stream KEEPS
    // flowing, so the next frame's bytes land where the tail should
    // be -- a header desync the master must treat as poison, not
    // crash on.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"", ""};
    opts.networkFaultPlans = {"trunc@frame:1", ""};
    opts.livenessTimeoutMs = 1500; // desync may read as silence
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.networkFaultsInjected, 1);
    EXPECT_GE(stats.workerDeaths, 1);
}

TEST(ChaosDse, GarbageOnTheWireIsPoisonNotProtocol)
{
    // garbage as a NETWORK action: the proxy injects junk ahead of an
    // intact frame -- wire corruption between two healthy endpoints,
    // the case worker-side garbage cannot express.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"", ""};
    opts.networkFaultPlans = {"garbage@frame:1", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_GE(stats.workerDeaths, 1);
}

TEST(ChaosDse, RefusedSlotStaysDeadAndTheOtherCarriesTheSweep)
{
    // refuse@connect fails slot 0's one connect. Nothing retries it:
    // the slot stays dead and slot 1 carries the whole sweep. No work
    // is lost -- the refusal happens before any dispatch.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    opts.workerFaultPlans = {"", ""};
    opts.networkFaultPlans = {"refuse@connect", ""};
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);
    expectSamePoints(ref, got);
    EXPECT_EQ(stats.networkFaultsInjected, 1);
    EXPECT_EQ(stats.workersSpawned, 1);
    EXPECT_EQ(stats.workerDeaths, 0);
    EXPECT_EQ(stats.redispatches, 0);
    EXPECT_EQ(stats.fallbackGroups, 0);
}

TEST(ChaosDse, AmbientPlanSplitsAcrossWorkerAndProxy)
{
    // One ambient FINESSE_DSE_FAULT scripting BOTH sides: the master
    // lifts the network-kind term into its proxy, the worker executes
    // only the worker-kind term. Both must demonstrably fire.
    const char *prev = std::getenv(kFaultPlanEnv);
    const std::string saved = prev ? prev : "";
    ASSERT_EQ(setenv(kFaultPlanEnv,
                     "delay_ms=150@frame:0;kill@group:1", 1),
              0);

    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    DistributorStats stats;
    DistributorOptions opts;
    opts.stats = &stats;
    const std::vector<DsePoint> got =
        ex.evaluateAllDistributed(reqs, 2, opts);

    if (prev)
        ASSERT_EQ(setenv(kFaultPlanEnv, saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv(kFaultPlanEnv), 0);

    expectSamePoints(ref, got);
    EXPECT_GE(stats.networkFaultsInjected, 1); // proxy ran the delay
    EXPECT_GE(stats.workerDeaths, 1);          // worker ran the kill
}

TEST(ChaosDse, NetworkFaultMatrixIsBitIdentical)
{
    // Every network fault plan must leave the results bit-identical
    // to the in-process engine. Survivability comes from re-dispatch
    // and in-process fallback; determinism from the evaluation path.
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    const std::vector<std::string> plans = {
        "drop@frame:1",
        "trunc@frame:1",
        "delay_ms=100@frame:0",
        "garbage@frame:1",
        "refuse@connect",
        "drop@frame:0", // the Hello itself dies mid-frame
    };
    for (const std::string &plan : plans) {
        SCOPED_TRACE(plan);
        DistributorStats stats;
        DistributorOptions opts;
        opts.stats = &stats;
        opts.workerFaultPlans = {"", ""};
        opts.networkFaultPlans = {plan};
        opts.livenessTimeoutMs = 1500;
        opts.maxGroupRetries = 2;
        const std::vector<DsePoint> got =
            ex.evaluateAllDistributed(reqs, 2, opts);
        expectSamePoints(ref, got);
        EXPECT_GE(stats.networkFaultsInjected, 1);
    }
}

TEST(ChaosDse, BitIdenticalForWorkerMatrixUnderFaultMatrix)
{
    // The determinism contract, survivable-fault edition: workers in
    // {1, 2, 4} x a plan matrix covering crash, hang, corruption and
    // compound faults must all return bit-identical results
    // (re-dispatch and in-process fallback guarantee completion).
    Explorer ex("BN254N");
    const std::vector<DseRequest> reqs = smallRequests(ex);
    const std::vector<DsePoint> ref = ex.evaluateAll(reqs, 1);

    const std::vector<std::string> plans = {
        "kill@group:1",
        "hang@group:0",
        "garbage@frame:0",
        "stall_ms=300@group:0;kill@group:2",
    };
    for (const std::string &plan : plans) {
        for (int workers : {1, 2, 4}) {
            SCOPED_TRACE(plan + " workers=" +
                         std::to_string(workers));
            DistributorStats stats;
            DistributorOptions opts;
            opts.stats = &stats;
            opts.workerFaultPlans = {plan};
            opts.livenessTimeoutMs = 1000;
            opts.maxGroupRetries = 2;
            const std::vector<DsePoint> got =
                ex.evaluateAllDistributed(reqs, workers, opts);
            expectSamePoints(ref, got);
        }
    }
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
