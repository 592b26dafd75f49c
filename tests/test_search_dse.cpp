/**
 * @file
 * Determinism contract of the seeded Pareto search (dse/search.h):
 * a fixed --search-seed must yield a BIT-identical frontier for any
 * jobs / dse-workers split and for cold vs warm artifact cache. Also
 * covers the frontier's structural invariants (mutual non-dominance,
 * genome/point pairing) and the warm-run "no front-end trace"
 * guarantee.
 *
 * Like test_distributed_dse, this binary is its own worker pool:
 * main() dispatches argv[1] == "dse-worker" into the worker loop
 * before gtest sees the command line, so the distributor's default
 * self-re-exec worker command works unchanged.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dse/distributor.h"
#include "dse/explorer.h"
#include "dse/search.h"
#include "golden.h"
#include "support/diskcache.h"

namespace finesse {
namespace {

/** Small but non-trivial search: a few dozen unique evaluations. */
SearchOptions
quickOptions()
{
    SearchOptions sopt;
    sopt.seed = 42;
    sopt.generations = 3;
    sopt.population = 8;
    sopt.seedGridCorners = false; // keep the eval count small
    return sopt;
}

/** Runs the quick search with the given dispatch knobs. */
SearchResult
runQuick(Explorer &ex, int jobs, int dseWorkers)
{
    SearchOptions sopt = quickOptions();
    sopt.base.jobs = jobs;
    sopt.base.dseWorkers = dseWorkers;
    ParetoSearch search(ex, SearchSpace::standard(ex), sopt);
    return search.run();
}

void
expectSameFrontier(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(frontierFingerprint(a.frontier),
              frontierFingerprint(b.frontier));
    ASSERT_EQ(a.frontier.size(), b.frontier.size());
    for (size_t i = 0; i < a.frontier.size(); ++i) {
        const DsePoint &pa = a.frontier[i];
        const DsePoint &pb = b.frontier[i];
        EXPECT_EQ(pa.label, pb.label);
        EXPECT_EQ(pa.cycles, pb.cycles);
        // Doubles exactly: same code, same inputs, raw bits on the
        // wire and in the cache -- every bit must match.
        EXPECT_EQ(pa.areaMm2, pb.areaMm2);
        EXPECT_EQ(pa.throughputOps, pb.throughputOps);
        EXPECT_EQ(pa.thptPerArea, pb.thptPerArea);
    }
    EXPECT_EQ(a.stats.evaluatedUnique, b.stats.evaluatedUnique);
}

/** rm -rf + disabled artifact cache around a test body. */
struct CacheOff
{
    CacheOff()
    {
        unsetenv(kArtifactCacheEnv);
        configureArtifactCache("");
    }
    ~CacheOff()
    {
        unsetenv(kArtifactCacheEnv);
        configureArtifactCache("");
    }
};

void
freshDir(const std::string &dir)
{
    const std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST(SearchDeterminism, BitIdenticalAcrossJobs)
{
    CacheOff off;
    Explorer ex("BN254N");
    clearTraceCache();
    const SearchResult r1 = runQuick(ex, 1, 0);
    const SearchResult r2 = runQuick(ex, 2, 0);
    const SearchResult r8 = runQuick(ex, 8, 0);
    ASSERT_FALSE(r1.frontier.empty());
    expectSameFrontier(r1, r2);
    expectSameFrontier(r1, r8);
    expectGolden("search.BN254N.quick",
                 goldenFormat("fingerprint=%016llx evaluated_unique=%zu",
                              static_cast<unsigned long long>(
                                  frontierFingerprint(r1.frontier)),
                              r1.stats.evaluatedUnique));
}

TEST(SearchDeterminism, BitIdenticalAcrossDseWorkers)
{
    CacheOff off;
    Explorer ex("BN254N");
    clearTraceCache();
    const SearchResult inproc = runQuick(ex, 1, 0);
    for (const int workers : {1, 2, 4}) {
        const SearchResult dist = runQuick(ex, 1, workers);
        expectSameFrontier(inproc, dist);
    }
}

TEST(SearchDeterminism, WarmCacheIsIdenticalAndTraceFree)
{
    CacheOff off;
    const std::string dir = "search_test_cache";
    freshDir(dir);
    Explorer ex("BN254N");

    clearTraceCache();
    const SearchResult cold = runQuick(ex, 1, 0); // cache disabled

    configureArtifactCache(dir);
    clearTraceCache();
    const SearchResult prime = runQuick(ex, 1, 0);
    EXPECT_EQ(prime.stats.pointCacheHits, 0u);
    EXPECT_EQ(prime.stats.pointCachePuts, prime.stats.evaluatedUnique);
    expectSameFrontier(cold, prime);

    // Warm: every point is an artifact hit, so the front end never
    // runs -- no traces, no disk writes, zero point misses.
    clearTraceCache();
    const SearchResult warm = runQuick(ex, 1, 0);
    expectSameFrontier(cold, warm);
    EXPECT_EQ(warm.stats.pointCacheHits, warm.stats.evaluatedUnique);
    EXPECT_EQ(warm.stats.pointCachePuts, 0u);
    const TraceCacheStats tc = traceCacheStats();
    EXPECT_EQ(tc.tracesPerformed(), 0u);
    EXPECT_EQ(tc.diskPuts, 0u);

    configureArtifactCache("");
    freshDir(dir);
}

TEST(SearchFrontier, MutuallyNonDominatedAndPaired)
{
    CacheOff off;
    Explorer ex("BN254N");
    clearTraceCache();
    const SearchResult r = runQuick(ex, 1, 0);
    ASSERT_FALSE(r.frontier.empty());
    ASSERT_EQ(r.frontier.size(), r.frontierGenomes.size());
    for (size_t i = 0; i < r.frontier.size(); ++i) {
        EXPECT_EQ(r.frontier[i].label, r.frontierGenomes[i].key());
        for (size_t j = 0; j < r.frontier.size(); ++j) {
            if (i == j)
                continue;
            EXPECT_FALSE(
                weaklyDominates(r.frontier[i], r.frontier[j]))
                << r.frontier[i].label << " dominates "
                << r.frontier[j].label;
        }
    }
    // The frontier is its own Pareto frontier (idempotence).
    EXPECT_EQ(paretoFrontier(r.frontier).size(), r.frontier.size());
    // The scalar winner scores at least as well as every frontier
    // point under the configured objective.
    for (const DsePoint &p : r.frontier)
        EXPECT_GE(Explorer::score(r.best, Objective::MaxThptPerArea),
                  Explorer::score(p, Objective::MaxThptPerArea));
}

TEST(SearchFrontier, CoversSeededGridCorners)
{
    CacheOff off;
    Explorer ex("BN254N");
    clearTraceCache();

    // With grid-corner seeding on, every fig10 hardware model x mul
    // mask is evaluated in generation 0, so the searched frontier
    // must weakly dominate the frontier of that sub-grid.
    SearchOptions sopt = quickOptions();
    sopt.generations = 1;
    sopt.seedGridCorners = true;
    sopt.base.jobs = 1;
    ParetoSearch search(ex, SearchSpace::standard(ex), sopt);
    const SearchResult r = search.run();
    ASSERT_FALSE(r.frontier.empty());
    EXPECT_TRUE(frontierCovers(r.frontier, r.frontier));
    EXPECT_GE(r.stats.evaluatedUnique,
              fig10HardwareModels().size());
}

} // namespace
} // namespace finesse

int
main(int argc, char **argv)
{
    if (const std::optional<int> rc =
            finesse::maybeRunDseWorkerMain(argc, argv))
        return *rc;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
