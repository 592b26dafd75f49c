/**
 * @file
 * Seeded Pareto-frontier search over the hardware/variant design
 * space -- the replacement for exhaustive grid enumeration in the
 * co-design loop (Sec. 3.6 scaled up: the paper's grid is 55 points;
 * the genome space here is several million).
 *
 * The search is a generational genetic/annealing loop. A Genome pins
 * one point of the space: issue ports x memory banks x writeback FIFO
 * depth x pipeline depth (long/short latency) x linear units x core
 * count x the per-tower-level multiplication mask and squaring
 * selector. Each
 * generation materializes its genomes as `DseRequest`s and dispatches
 * ONE batch through `Explorer::evaluateAll`, so trace-key grouping
 * and the batched backend engine apply unchanged. Evaluated
 * points feed a 2-D Pareto archive (maximize throughput, minimize
 * area); parent selection is tournament by the scalar objective with
 * an annealed mutation radius.
 *
 * Determinism contract (extends the sweep contract): a fixed
 * SearchOptions::seed yields a BIT-identical frontier for any
 * jobs count, cold or warm artifact cache. This holds because (a)
 * per-point evaluation is bit-identical for any thread count and
 * across cache round trips (raw-bit codecs), and
 * (b) every search decision -- selection, dominance, ordering --
 * reads only deterministic point fields (never wall-clock fields) and
 * breaks ties canonically. `frontierFingerprint` hashes exactly the
 * deterministic fields so tests and benches can assert the contract
 * cheaply.
 *
 * When the process-wide artifact cache (support/diskcache.h) is
 * enabled, per-point backend results are cached content-addressed
 * (key: trace key + hardware model + cores + backend pipeline +
 * build/catalog fingerprint; payload: the dse/wire.h DsePoint
 * encoding) and a warm re-search skips both the frontend traces and
 * the backend evaluations it has seen before.
 */
#ifndef FINESSE_DSE_SEARCH_H_
#define FINESSE_DSE_SEARCH_H_

#include <map>
#include <string>
#include <vector>

#include "dse/explorer.h"

namespace finesse {

/** Candidate values per genome dimension (deterministic orderings). */
struct SearchSpace
{
    std::vector<int> longLat;
    std::vector<int> shortLat;
    std::vector<int> issueWidth;
    std::vector<int> numLinUnits;
    std::vector<int> numBanks;
    std::vector<int> fifoDepth;
    std::vector<int> cores;
    std::vector<int> mulLevels; ///< tower degrees with a mul choice

    /**
     * Number of squaring decompositions per mulLevels entry: 3 for
     * cubic levels (Schoolbook/CHSqr3/CHSqr2), 2 for quadratic
     * (Schoolbook/Complex). Backfilled from the curve's tower by the
     * ParetoSearch constructor when left empty.
     */
    std::vector<u8> sqrOptions;

    /**
     * The standard space for @p ex's curve: pipeline bounds around
     * hwmodel/pipeline.h defaults, a superset of the Fig. 10 grid
     * models (every grid point is reachable, so a seeded search can
     * never be dominated by the grid it replaces).
     */
    static SearchSpace standard(const Explorer &ex);

    /** Upper bound on distinct genomes (pre-repair). */
    u64 combinations() const;
};

/** One point of the search space; the unit of evolution. */
struct Genome
{
    int longLat = 38;
    int shortLat = 8;
    int issueWidth = 1;
    int numLinUnits = 1;
    int numBanks = 1;
    int fifoDepth = 8;
    int cores = 1;
    u32 mulMask = 0; ///< bit i: Karatsuba at mulLevels[i]

    /**
     * Squaring selector, 2 bits per mulLevels entry: 0 = Schoolbook,
     * 1 = the fast decomposition (Complex on quadratic levels, CHSqr3
     * on cubic), 2 = CHSqr2 (cubic levels only; repaired to 1
     * elsewhere). Defaults to "fast everywhere", the same choice the
     * exhaustive mul-only grid makes.
     */
    u32 sqrSel = 0x55;

    bool operator==(const Genome &) const = default;

    /** Canonical key; doubles as the DsePoint label. */
    std::string key() const;
};

/** Knobs of one search run. */
struct SearchOptions
{
    u64 seed = 1;
    int generations = 8;
    int population = 32;
    Objective objective = Objective::MaxThptPerArea;

    /**
     * Base compile options for every materialized request (part, pass
     * pipeline, trace-cache flag, jobs). `variants` and `hw` are
     * overwritten per genome; `jobs` sets the sweep threads exactly as
     * it does for Explorer sweeps.
     */
    CompileOptions base;

    /**
     * Seed generation 0 with the full Fig. 10 grid (every variant
     * combination x every grid hardware model): the searched frontier
     * then dominates-or-matches the exhaustive grid frontier by
     * construction after one generation, and the remaining
     * generations explore the 10^4x larger space beyond it.
     */
    bool seedGridCorners = true;
};

/** Per-generation progress counters. */
struct SearchGeneration
{
    size_t requested = 0; ///< new unique genomes this generation
    size_t cachedPoints = 0; ///< served by the artifact cache
    size_t archiveSize = 0;  ///< frontier size after the generation
};

struct SearchStats
{
    size_t evaluatedUnique = 0; ///< distinct design points evaluated
    size_t pointCacheHits = 0;
    size_t pointCachePuts = 0;
    u64 spaceSize = 0;
    std::vector<SearchGeneration> generations;
};

struct SearchResult
{
    /** Pareto frontier, canonical order (area ascending). */
    std::vector<DsePoint> frontier;
    std::vector<Genome> frontierGenomes; ///< parallel to frontier
    DsePoint best; ///< scalar-objective winner over all evaluated
    SearchStats stats;
};

/** The seeded genetic/annealing Pareto search. */
class ParetoSearch
{
  public:
    ParetoSearch(const Explorer &ex, SearchSpace space,
                 SearchOptions opt);

    SearchResult run();

  private:
    struct Evaluated
    {
        Genome genome;
        DsePoint point;
    };

    DseRequest materialize(const Genome &g) const;
    void repair(Genome &g) const;
    Genome randomGenome(Rng &rng) const;
    Genome mutate(Genome g, Rng &rng, int radius) const;
    Genome crossover(const Genome &a, const Genome &b, Rng &rng) const;
    const Evaluated &tournament(Rng &rng) const;
    std::vector<Genome> initialPopulation(Rng &rng) const;
    std::vector<DsePoint> evaluateBatch(const std::vector<Genome> &gs);
    void updateArchive(const Genome &g, const DsePoint &p);

    const Explorer &ex_;
    SearchSpace space_;
    SearchOptions opt_;
    std::map<std::string, Evaluated> evaluated_; ///< by genome key
    std::vector<std::string> evalOrder_; ///< insertion-ordered keys
    std::vector<Evaluated> archive_;     ///< current Pareto set
    SearchStats stats_;
};

// Frontier helpers, shared by the search, benches and tests ----------

/** a weakly dominates b on (throughput up, area down). */
bool weaklyDominates(const DsePoint &a, const DsePoint &b);

/** Pareto frontier of @p pts in canonical order (area ascending). */
std::vector<DsePoint> paretoFrontier(std::vector<DsePoint> pts);

/** Every point of @p reference weakly dominated by some frontier pt. */
bool frontierCovers(const std::vector<DsePoint> &frontier,
                    const std::vector<DsePoint> &reference);

/**
 * FNV-1a over the deterministic fields of every frontier point
 * (label, variants, hardware model, cores, instruction counts,
 * cycles, and the raw IEEE-754 bits of the derived metrics).
 * Wall-clock fields (compileSeconds, pass seconds) are excluded: the
 * bit-identity contract is about results, not about how long they
 * took or which cache served them.
 */
u64 frontierFingerprint(const std::vector<DsePoint> &frontier);

} // namespace finesse

#endif // FINESSE_DSE_SEARCH_H_
