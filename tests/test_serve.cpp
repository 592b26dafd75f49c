/**
 * @file
 * Batched pairing-verification serving engine (src/serve/):
 * RLC batch correctness (accept iff all valid), bisection isolation
 * of individual bad requests, its fallback count and its cost (one
 * pairing product per split), differential identity against
 * per-request single verification (on BN254N each request kind alone
 * and mixed, batch sizes 1 to 16, a corrupted request first, in the
 * middle or last, two corrupted requests in one batch, eight RLC
 * seeds; on BLS12-381 a mixed batch of 16 with one to three corrupted
 * requests, two seeds),
 * G2-base merge economy (Miller-loop counts), and the ServeEngine's
 * serial == concurrent verdict contract plus admission-queue
 * backpressure, and the serve command parser's rejection of malformed
 * lines. The whole file is TSan-clean (CI runs it under
 * -DFINESSE_SANITIZE=thread).
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "serve/engine.h"
#include "serve/servecli.h"
#include "serve/workload.h"
#include "support/rng.h"

using namespace finesse;

namespace {

constexpr const char *kCurve = "BN254N";

std::vector<PairingCheck>
makeChecks(WorkloadFactory &factory, RequestKind kind, int n,
           const std::vector<int> &corrupt)
{
    std::vector<PairingCheck> checks;
    for (int i = 0; i < n; ++i) {
        const bool bad = std::find(corrupt.begin(), corrupt.end(), i) !=
                         corrupt.end();
        checks.push_back(
            reduceToCheck(factory.system(), factory.make(kind, bad)));
    }
    return checks;
}

} // namespace

TEST(ServeVerify, BatchOfNAcceptsIffAllValid)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 101);
    for (const RequestKind kind :
         {RequestKind::Bls, RequestKind::Kzg, RequestKind::Zk}) {
        BatchVerifyStats stats;
        const auto checks = makeChecks(factory, kind, 6, {});
        const auto verdicts = verifyBatch(sys, checks, 7, &stats);
        for (size_t i = 0; i < verdicts.size(); ++i)
            EXPECT_TRUE(verdicts[i]) << toString(kind) << " #" << i;
        // All-valid: ONE RLC product, no fallback, no splits.
        EXPECT_EQ(stats.products, 1u);
        EXPECT_EQ(stats.singleChecks, 0u);
        EXPECT_EQ(stats.bisectSplits, 0u);

        BatchVerifyStats badStats;
        const auto badChecks = makeChecks(factory, kind, 6, {2});
        const auto badVerdicts =
            verifyBatch(sys, badChecks, 7, &badStats);
        for (size_t i = 0; i < badVerdicts.size(); ++i)
            EXPECT_EQ(badVerdicts[i], i != 2)
                << toString(kind) << " #" << i;
        EXPECT_GE(badStats.bisectSplits, 1u);
    }
}

TEST(ServeVerify, BisectionIsolatesSingleBadRequest)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 202);
    // One corrupted signature among 8: the fallback must pinpoint it
    // while whole all-valid subtrees clear in one product each.
    BatchVerifyStats stats;
    const auto checks = makeChecks(factory, RequestKind::Bls, 8, {5});
    const auto verdicts = verifyBatch(sys, checks, 99, &stats);
    for (size_t i = 0; i < verdicts.size(); ++i)
        EXPECT_EQ(verdicts[i], i != 5) << "#" << i;
    // Bisection cost: the root fails, then log2(8) levels of splits;
    // well under the 8 singles a naive fallback would run.
    EXPECT_GE(stats.bisectSplits, 3u);
    EXPECT_LE(stats.singleChecks, 2u);
}

TEST(ServeVerify, FallbacksCountOnlySplitLeaves)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 212);
    // A batch of one is verified alone from the start: no fallback,
    // good request or bad.
    for (const bool bad : {false, true}) {
        BatchVerifyStats stats;
        const auto checks = makeChecks(factory, RequestKind::Bls, 1,
                                       bad ? std::vector<int>{0}
                                           : std::vector<int>{});
        EXPECT_EQ(verifyBatch(sys, checks, 5, &stats)[0], !bad);
        EXPECT_EQ(stats.products, 1u);
        EXPECT_EQ(stats.singleChecks, 0u);
        EXPECT_EQ(stats.bisectSplits, 0u);
    }
    // One bad request of two: the root fails, one split, and both
    // halves are single checks the split reached.
    BatchVerifyStats stats;
    const auto checks = makeChecks(factory, RequestKind::Bls, 2, {1});
    const auto verdicts = verifyBatch(sys, checks, 5, &stats);
    EXPECT_TRUE(verdicts[0]);
    EXPECT_FALSE(verdicts[1]);
    EXPECT_EQ(stats.bisectSplits, 1u);
    EXPECT_EQ(stats.singleChecks, 2u);

    // The engine reports the same count as single_fallbacks: lone
    // requests (batch size 1) never register as fallbacks.
    ServeOptions opt;
    opt.batchSize = 1;
    ServeEngine engine(sys, opt);
    for (int i = 0; i < 3; ++i) {
        Admission adm =
            engine.submit(factory.make(RequestKind::Bls, i == 1));
        ASSERT_TRUE(adm.admitted);
        EXPECT_EQ(adm.verdict.get() == Verdict::Accept, i != 1);
    }
    engine.drain();
    EXPECT_EQ(engine.counters().batches, 3u);
    EXPECT_EQ(engine.counters().singleFallbacks, 0u);
}

TEST(ServeVerify, BisectionCostsOneProductPerSplit)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 222);
    // All valid: the root product alone.
    {
        BatchVerifyStats stats;
        const auto checks = makeChecks(factory, RequestKind::Bls, 16, {});
        EXPECT_EQ(verifyBatch(sys, checks, 9, &stats),
                  std::vector<bool>(16, true));
        EXPECT_EQ(stats.products, 1u);
        EXPECT_EQ(stats.bisectSplits, 0u);
        EXPECT_EQ(stats.singleChecks, 0u);
    }
    // One bad request in 16, at every position: the root, then one
    // product per split (the left half; the right half is derived),
    // log2(16) splits, and the two leaves of the last split.
    for (int bad = 0; bad < 16; ++bad) {
        SCOPED_TRACE(::testing::Message() << "bad #" << bad);
        BatchVerifyStats stats;
        const auto checks =
            makeChecks(factory, RequestKind::Bls, 16, {bad});
        const auto verdicts = verifyBatch(sys, checks, 9, &stats);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(verdicts[i], i != bad) << "#" << i;
        EXPECT_EQ(stats.products, 5u);
        EXPECT_EQ(stats.bisectSplits, 4u);
        EXPECT_EQ(stats.singleChecks, 2u);
    }
}

TEST(ServeVerify, RlcDifferentialAgainstSingles)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 303);
    const std::vector<std::vector<RequestKind>> mixes = {
        {RequestKind::Bls},
        {RequestKind::Kzg},
        {RequestKind::Zk},
        {RequestKind::Bls, RequestKind::Kzg, RequestKind::Zk}};
    const u64 seeds[] = {1ull, 2ull, 42ull, 0xdeadbeefull,
                         0x5eedull, 1ull << 63, ~0ull, 0x9e3779b97f4a7c15ull};
    for (const auto &mix : mixes) {
        for (const int n : {1, 2, 3, 16}) {
            // No corrupted request; one first, in the middle, last; two
            // in one batch, which the RLC scalars must keep from
            // cancelling and bisection must isolate separately.
            std::set<std::set<int>> patterns = {
                {}, {0}, {n / 2}, {n - 1}, {0, n - 1}};
            if (n > 2)
                patterns.insert({n / 2, n - 1});
            if (n > 3)
                patterns.insert({1, n - 2});
            for (const std::set<int> &bad : patterns) {
                std::vector<PairingCheck> checks;
                std::vector<bool> singles;
                std::string badList;
                for (int i = 0; i < n; ++i) {
                    const bool corrupt = bad.count(i) != 0;
                    if (corrupt)
                        badList += " " + std::to_string(i);
                    checks.push_back(reduceToCheck(
                        sys, factory.make(mix[i % mix.size()], corrupt)));
                    singles.push_back(verifySingle(sys, checks.back()));
                    ASSERT_EQ(singles.back(), !corrupt);
                }
                for (const u64 seed : seeds) {
                    SCOPED_TRACE(::testing::Message()
                                 << toString(mix[0]) << "+" << mix.size() - 1
                                 << " n " << n << " bad" << badList
                                 << " seed " << seed);
                    EXPECT_EQ(verifyBatch(sys, checks, seed), singles);
                }
            }
        }
    }
}

TEST(ServeVerify, RlcDifferentialAgainstSinglesBls12)
{
    // The 6-limb field: derived right halves and leaf rejections on
    // BLS12-381, each kind in turn in one batch of 16.
    const auto &sys = curveSystem12("BLS12-381");
    WorkloadFactory factory(sys, 313);
    const RequestKind kinds[] = {RequestKind::Bls, RequestKind::Kzg,
                                 RequestKind::Zk};
    const int n = 16;
    // One bad; two in one half; two across the halves; three spread.
    const std::vector<std::set<int>> patterns = {
        {5}, {2, 6}, {0, n - 1}, {1, 8, 13}};
    for (const std::set<int> &bad : patterns) {
        std::vector<PairingCheck> checks;
        std::vector<bool> singles;
        std::string badList;
        for (int i = 0; i < n; ++i) {
            const bool corrupt = bad.count(i) != 0;
            if (corrupt)
                badList += " " + std::to_string(i);
            checks.push_back(
                reduceToCheck(sys, factory.make(kinds[i % 3], corrupt)));
            singles.push_back(verifySingle(sys, checks.back()));
            ASSERT_EQ(singles.back(), !corrupt);
        }
        for (const u64 seed : {3ull, 0xfeedfaceull}) {
            SCOPED_TRACE(::testing::Message()
                         << "bad" << badList << " seed " << seed);
            EXPECT_EQ(verifyBatch(sys, checks, seed), singles);
        }
    }
}

TEST(ServeVerify, G2BaseMergeEconomy)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 404);
    // BLS: N pk terms + 1 merged g2 term.
    {
        BatchVerifyStats stats;
        verifyBatch(sys, makeChecks(factory, RequestKind::Bls, 8, {}),
                    5, &stats);
        EXPECT_EQ(stats.pairings, 9u);
    }
    // KZG against one SRS: everything merges onto {g2, [tau]g2}.
    {
        BatchVerifyStats stats;
        verifyBatch(sys, makeChecks(factory, RequestKind::Kzg, 8, {}),
                    5, &stats);
        EXPECT_EQ(stats.pairings, 2u);
    }
    // Groth16 with one vk: N (A,B) terms + 3 merged vk terms.
    {
        BatchVerifyStats stats;
        verifyBatch(sys, makeChecks(factory, RequestKind::Zk, 8, {}), 5,
                    &stats);
        EXPECT_EQ(stats.pairings, 11u);
    }
}

TEST(ServeVerify, EmptyAndInfinityEdges)
{
    const auto &sys = curveSystem12(kCurve);
    EXPECT_TRUE(verifyBatch(sys, {}, 1).empty());
    // A vacuous check (all terms infinity) is the empty product == 1.
    PairingCheck vacuous;
    vacuous.terms.push_back(
        {AffinePt<Fp>::atInfinity(), sys.g2Gen()});
    vacuous.terms.push_back(
        {sys.g1Gen(), AffinePt<Fp2>::atInfinity()});
    EXPECT_TRUE(verifySingle(sys, vacuous));
    std::vector<PairingCheck> batch{vacuous, vacuous};
    const auto verdicts = verifyBatch(sys, batch, 3);
    EXPECT_TRUE(verdicts[0] && verdicts[1]);
}

TEST(ServeEngineTest, SerialEqualsConcurrentVerdicts)
{
    const auto &sys = curveSystem12(kCurve);
    // Fixed mixed workload with a known corruption pattern; the
    // verdict vector must be identical for every jobs value (batch
    // composition differs with scheduling, verdicts must not).
    const int n = 24;
    std::vector<bool> expected;
    std::vector<VerifyRequest> requests;
    {
        WorkloadFactory factory(sys, 515);
        const RequestKind kinds[] = {RequestKind::Bls, RequestKind::Kzg,
                                     RequestKind::Zk};
        for (int i = 0; i < n; ++i) {
            const bool bad = i % 7 == 3;
            requests.push_back(factory.make(kinds[i % 3], bad));
            expected.push_back(!bad);
        }
    }
    for (const int jobs : {1, 2, 8}) {
        ServeOptions opt;
        opt.jobs = jobs;
        opt.batchSize = 5; // force partial + multi-batch paths
        ServeEngine engine(sys, opt);
        std::vector<std::future<Verdict>> futures;
        for (const VerifyRequest &req : requests) {
            Admission adm = engine.submit(req);
            ASSERT_TRUE(adm.admitted) << "jobs " << jobs;
            futures.push_back(std::move(adm.verdict));
        }
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(futures[i].get() == Verdict::Accept, expected[i])
                << "jobs " << jobs << " #" << i;
        }
        engine.drain();
        const ServeCounters c = engine.counters();
        EXPECT_EQ(c.submitted, static_cast<size_t>(n));
        EXPECT_EQ(c.completed, static_cast<size_t>(n));
        EXPECT_EQ(c.accepted + c.rejectedInvalid,
                  static_cast<size_t>(n));
        EXPECT_EQ(c.rejectedInvalid, 3u); // i in {3, 10, 17}
        EXPECT_GE(c.batches, static_cast<size_t>(n / 5));
        EXPECT_GT(c.totalLatencyMs, 0.0);
    }
}

TEST(ServeEngineTest, BackpressureBouncesAndRecovers)
{
    const auto &sys = curveSystem12(kCurve);
    WorkloadFactory factory(sys, 616);
    ServeOptions opt;
    opt.jobs = 1;
    opt.batchSize = 2;
    opt.maxQueue = 2;
    ServeEngine engine(sys, opt);
    // Submitting is microseconds, verifying a batch is milliseconds:
    // a tight submit loop must overrun a 2-deep queue long before the
    // single lane drains 200 requests.
    bool bounced = false;
    int admitted = 0;
    std::vector<std::future<Verdict>> futures;
    for (int i = 0; i < 200 && !bounced; ++i) {
        Admission adm =
            engine.submit(factory.make(RequestKind::Bls, false));
        if (adm.admitted) {
            admitted++;
            futures.push_back(std::move(adm.verdict));
        } else {
            bounced = true;
            EXPECT_GE(adm.retryAfterMs, 1);
        }
    }
    ASSERT_TRUE(bounced) << "queue never filled after 200 submits";
    engine.drain();
    EXPECT_GE(engine.counters().rejectedBusy, 1u);
    // After the drain there is capacity again: the retry succeeds.
    Admission retry =
        engine.submit(factory.make(RequestKind::Bls, false));
    ASSERT_TRUE(retry.admitted);
    EXPECT_EQ(retry.verdict.get(), Verdict::Accept);
    for (auto &f : futures)
        EXPECT_EQ(f.get(), Verdict::Accept);
    engine.drain(); // counters land after promises; wait for the batch
    const ServeCounters c = engine.counters();
    EXPECT_EQ(c.completed, static_cast<size_t>(admitted) + 1);
    EXPECT_EQ(c.rejectedInvalid, 0u);
}

// ------------------------------------------------ serve command parser

TEST(ServeCommandParse, Table)
{
    using Op = ServeCommand::Op;
    const struct
    {
        const char *line;
        Op op;
        RequestKind kind;
        int count;
        std::set<int> corrupt;
    } ok[] = {
        {"", Op::None, RequestKind::Bls, 0, {}},
        {"   \n", Op::None, RequestKind::Bls, 0, {}},
        {"# bls 2 corrupt=5", Op::None, RequestKind::Bls, 0, {}},
        {"bls 8 corrupt=2\n", Op::Submit, RequestKind::Bls, 8, {2}},
        {"kzg 4", Op::Submit, RequestKind::Kzg, 4, {}},
        {"zk 3 corrupt=0,2,2", Op::Submit, RequestKind::Zk, 3, {0, 2}},
        {"\tbls   2  ", Op::Submit, RequestKind::Bls, 2, {}},
        {"flood kzg 5", Op::Flood, RequestKind::Kzg, 5, {}},
        {"stats", Op::Stats, RequestKind::Bls, 0, {}},
        {"drain", Op::Drain, RequestKind::Bls, 0, {}},
        {"quit\n", Op::Quit, RequestKind::Bls, 0, {}},
    };
    for (const auto &c : ok) {
        SCOPED_TRACE(c.line);
        const ServeCommand got = parseServeCommand(c.line);
        EXPECT_EQ(got.op, c.op);
        EXPECT_EQ(got.kind, c.kind);
        EXPECT_EQ(got.count, c.count);
        EXPECT_EQ(got.corrupt, c.corrupt);
    }

    for (const char *bad : {
             "bls 2 corrupt=5",       // index past the request count
             "bls 2 corrupt=2",       // == count is out of range too
             "bls 2 corrupt=1 junk",  // trailing token
             "bls 2 junk",            // unknown argument
             "bls 2 corrupt=",        // empty index list
             "bls 2 corrupt=-1",
             "bls 2 corrupt=1x",
             "bls 2 corrupt=01",
             "flood bls 3x",          // junk after the count
             "flood bls 3 4",
             "flood bls",
             "flood nope 3",
             "bls",
             "bls 0",
             "bls -1",
             "bls 3x",
             "bls 4294967297",        // no truncation into range
             "bls 03",
             "stats now",
             "quit 1",
             "verify 3",
         }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseServeCommand(bad), FatalError);
    }
}

namespace {

/** Invariants every accepted command holds. */
void
expectWellFormed(const ServeCommand &c)
{
    if (c.op != ServeCommand::Op::Submit &&
        c.op != ServeCommand::Op::Flood)
        return;
    EXPECT_GE(c.count, 1);
    for (const int i : c.corrupt) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, c.count);
    }
}

} // namespace

TEST(ServeCommandParse, TruncationAndMutation)
{
    // Every prefix and random single-character mutations of valid
    // lines: each parses to a well-formed command or is rejected with
    // FatalError -- never another exception, never a bad command.
    const std::vector<std::string> valid = {
        "bls 8 corrupt=2,5", "kzg 12 corrupt=0,11", "flood zk 30",
        "stats", "drain", "quit"};
    for (const std::string &line : valid) {
        for (size_t n = 0; n <= line.size(); ++n) {
            SCOPED_TRACE(line.substr(0, n));
            try {
                expectWellFormed(parseServeCommand(line.substr(0, n)));
            } catch (const FatalError &) {
            }
        }
    }
    const std::string alphabet = "0123456789 ,=-+xX#abcdefghijklmnopqrstuvwz";
    Rng rng(0x5e4e);
    for (int iter = 0; iter < 4000; ++iter) {
        std::string line = valid[rng.below(valid.size())];
        const int edits = 1 + static_cast<int>(rng.below(3));
        for (int e = 0; e < edits && !line.empty(); ++e)
            line[rng.below(line.size())] =
                alphabet[rng.below(alphabet.size())];
        SCOPED_TRACE(line);
        try {
            expectWellFormed(parseServeCommand(line));
        } catch (const FatalError &) {
        }
    }
}
