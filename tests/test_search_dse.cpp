/**
 * @file
 * Determinism contract of the seeded Pareto search (dse/search.h):
 * a fixed --search-seed must yield a BIT-identical frontier for any
 * jobs count and for cold vs warm artifact cache. Also covers the
 * frontier's structural invariants (mutual non-dominance,
 * genome/point pairing) and the warm-run "no front-end trace"
 * guarantee.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

/** Runs the quick search on @p jobs threads. */
SearchResult
runQuick(Explorer &ex, int jobs)
{
    SearchOptions sopt = quickOptions();
    sopt.base.jobs = jobs;
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
        // Doubles exactly: same code, same inputs, raw bits in the
        // cache -- every bit must match.
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
    const SearchResult r1 = runQuick(ex, 1);
    const SearchResult r2 = runQuick(ex, 2);
    const SearchResult r8 = runQuick(ex, 8);
    ASSERT_FALSE(r1.frontier.empty());
    expectSameFrontier(r1, r2);
    expectSameFrontier(r1, r8);
    expectGolden("search.BN254N.quick",
                 goldenFormat("fingerprint=%016llx evaluated_unique=%zu",
                              static_cast<unsigned long long>(
                                  frontierFingerprint(r1.frontier)),
                              r1.stats.evaluatedUnique));
}

TEST(SearchDeterminism, WarmCacheIsIdenticalAndTraceFree)
{
    CacheOff off;
    const std::string dir = "search_test_cache";
    freshDir(dir);
    Explorer ex("BN254N");

    clearTraceCache();
    const SearchResult cold = runQuick(ex, 1); // cache disabled

    configureArtifactCache(dir);
    clearTraceCache();
    const SearchResult prime = runQuick(ex, 1);
    EXPECT_EQ(prime.stats.pointCacheHits, 0u);
    EXPECT_EQ(prime.stats.pointCachePuts, prime.stats.evaluatedUnique);
    expectSameFrontier(cold, prime);

    // Warm: every point is an artifact hit, so the front end never
    // runs -- no traces, no disk writes, zero point misses.
    clearTraceCache();
    const SearchResult warm = runQuick(ex, 1);
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
    const SearchResult r = runQuick(ex, 1);
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
