/**
 * @file
 * Search-based Pareto DSE against the exhaustive Fig. 10 grid, plus
 * the persistent artifact cache's warm-vs-cold speedup.
 *
 * Four legs on BN254N (three tower levels -> the paper-shaped
 * 55-point grid: 3 preset + 8 mul-variant combos x 5 pipeline
 * models):
 *
 *  1. grid  -- exhaustive enumeration of the 55-point grid, artifact
 *              cache force-disabled. Its Pareto frontier is the
 *              reference the search must dominate or match.
 *  2. cold  -- the seeded Pareto search with the cache disabled: the
 *              honest end-to-end search cost, and the reference wall
 *              time the warm leg is measured against. Identical on
 *              every invocation (never touches the disk).
 *  3. prime -- the same seeded search with the artifact cache enabled
 *              at FINESSE_ARTIFACT_CACHE (default ./fig_search_cache).
 *              On the first invocation this populates the cache; from
 *              the second invocation on, every design point is a
 *              point-artifact hit, so NO front-end trace is performed
 *              (prints "trace hit rate 1.00 | 0 traces performed",
 *              which the CI double-run gate greps for).
 *  4. warm  -- the search once more in the same process against the
 *              now-hot cache: wall time is pure cache replay. The
 *              cold/warm speedup must reach kWarmSpeedupFloor.
 *
 * Determinism: all three search legs must produce the SAME frontier
 * fingerprint (dse/search.h contract); any divergence fails the run,
 * as does a searched frontier that misses a grid-frontier point or a
 * search that evaluates under 10x the grid. FINESSE_FAST changes
 * nothing here.
 */
#include <chrono>
#include <cstdlib>

#include "bench_common.h"
#include "dse/explorer.h"
#include "dse/search.h"
#include "support/diskcache.h"
#include "support/threadpool.h"

using namespace finesse;

namespace {

/**
 * 80 % of 25x. A warm re-search is pure cache replay, thousands of
 * times faster than cold; the floor fails only when replay stops being
 * orders of magnitude faster.
 */
constexpr double kWarmSpeedupFloor = 0.8 * 25.0;

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
hex16(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

} // namespace

int
main()
{
    banner("Pareto search vs exhaustive grid + artifact cache");
    const char *curve = "BN254N";
    Explorer ex(curve);
    const int jobs = resolveJobs(0);

    // The grid and cold legs must never see the cache, whatever the
    // environment says; the prime/warm legs opt back in explicitly.
    const char *envDir = std::getenv(kArtifactCacheEnv);
    const std::string cacheDir =
        envDir != nullptr && envDir[0] != '\0' ? envDir
                                               : "fig_search_cache";
    configureArtifactCache("");

    // Leg 1: the exhaustive Fig. 10 grid, exactly the enumeration the
    // search replaces.
    const std::vector<DseRequest> reqs = fig10Grid(ex);
    clearTraceCache();
    const auto tGrid = std::chrono::steady_clock::now();
    const std::vector<DsePoint> grid = ex.evaluateAll(reqs, jobs);
    const double gridSeconds = wallSeconds(tGrid);
    const std::vector<DsePoint> gridFrontier = paretoFrontier(grid);

    SearchOptions sopt;
    sopt.seed = 1;
    sopt.generations = 12;
    sopt.population = 64;
    sopt.base.jobs = jobs;
    const SearchSpace sspace = SearchSpace::standard(ex);

    // Leg 2: cold search, cache disabled.
    clearTraceCache();
    const auto tCold = std::chrono::steady_clock::now();
    ParetoSearch coldSearch(ex, sspace, sopt);
    const SearchResult cold = coldSearch.run();
    const double coldSeconds = wallSeconds(tCold);
    const u64 fpCold = frontierFingerprint(cold.frontier);

    // Leg 3: cache-enabled search (primes on the first invocation;
    // pure point-artifact replay from the second on).
    configureArtifactCache(cacheDir);
    clearTraceCache();
    ParetoSearch primeSearch(ex, sspace, sopt);
    const SearchResult prime = primeSearch.run();
    const u64 fpPrime = frontierFingerprint(prime.frontier);
    const TraceCacheStats tc = traceCacheStats();
    const size_t traceLookups = tc.diskHits + tc.diskMisses;
    const double traceHitRate =
        traceLookups > 0
            ? static_cast<double>(tc.diskHits) /
                  static_cast<double>(traceLookups)
            : 1.0;
    const size_t tracesPerformed = tc.tracesPerformed();

    // Leg 4: warm re-search against the hot cache.
    clearTraceCache();
    const auto tWarm = std::chrono::steady_clock::now();
    ParetoSearch warmSearch(ex, sspace, sopt);
    const SearchResult warm = warmSearch.run();
    const double warmSeconds = wallSeconds(tWarm);
    const u64 fpWarm = frontierFingerprint(warm.frontier);

    const double warmSpeedup =
        warmSeconds > 0 ? coldSeconds / warmSeconds : 0.0;

    // Acceptance checks ------------------------------------------------
    size_t failures = 0;
    const size_t determinismMismatches =
        (fpPrime != fpCold ? 1u : 0u) + (fpWarm != fpCold ? 1u : 0u);
    if (determinismMismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: frontier fingerprints diverge (cold %s, "
                     "prime %s, warm %s)\n",
                     hex16(fpCold).c_str(), hex16(fpPrime).c_str(),
                     hex16(fpWarm).c_str());
        ++failures;
    }
    const bool covers = frontierCovers(cold.frontier, gridFrontier);
    if (!covers) {
        std::fprintf(stderr, "FAIL: searched frontier does not cover "
                             "the exhaustive grid frontier\n");
        for (const DsePoint &g : gridFrontier) {
            bool dominated = false;
            for (const DsePoint &s : cold.frontier)
                dominated = dominated || weaklyDominates(s, g);
            if (!dominated)
                std::fprintf(
                    stderr,
                    "  uncovered: %s hw=L%d,S%d,W%d,lin%d,b%d,f%d "
                    "area=%.3f thpt=%.1f\n",
                    g.variants.cacheKey().c_str(), g.hw.longLat,
                    g.hw.shortLat, g.hw.issueWidth, g.hw.numLinUnits,
                    g.hw.numBanks, g.hw.fifoDepth, g.areaMm2,
                    g.throughputOps);
        }
        ++failures;
    }
    const double coverageX =
        static_cast<double>(cold.stats.evaluatedUnique) /
        static_cast<double>(grid.size());
    if (coverageX < 10.0) {
        std::fprintf(stderr,
                     "FAIL: search evaluated only %.1fx the grid "
                     "(%zu vs %zu points; need >= 10x)\n",
                     coverageX, cold.stats.evaluatedUnique, grid.size());
        ++failures;
    }
    if (!meetsFloor("warm re-search speedup", warmSpeedup,
                    kWarmSpeedupFloor))
        ++failures;

    std::printf("grid: %zu points in %.2f s -> %zu-point frontier\n",
                grid.size(), gridSeconds, gridFrontier.size());
    std::printf("search: %zu unique points (%.1fx grid) of a "
                "%llu-point space -> %zu-point frontier "
                "(fingerprint %s)\n",
                cold.stats.evaluatedUnique, coverageX,
                static_cast<unsigned long long>(cold.stats.spaceSize),
                cold.frontier.size(), hex16(fpCold).c_str());
    std::printf("frontier covers grid: %s\n", covers ? "yes" : "NO");
    std::printf("cold %.2f s | warm %.3f s | speedup %.1fx | trace "
                "hit rate %.2f | %zu traces performed | point cache: "
                "%zu hits, %zu puts\n",
                coldSeconds, warmSeconds, warmSpeedup, traceHitRate,
                tracesPerformed,
                prime.stats.pointCacheHits, prime.stats.pointCachePuts);

    TextTable t;
    t.header({"Pareto design", "cycles", "mm^2", "ops/s", "ops/s/mm^2"});
    for (const DsePoint &p : cold.frontier) {
        t.row({p.label, fmtK(static_cast<double>(p.cycles)),
               fmt(p.areaMm2), fmtK(p.throughputOps),
               fmtK(p.thptPerArea)});
    }
    t.print();

    return failures == 0 ? 0 : 1;
}
