/**
 * @file
 * Shared declarations of the finesse performance benchmark: workload
 * specs, the per-run report, the in-memory span log, and the phases a
 * run executes. The benchmark drives the library only through its
 * public headers under src/, so every number is measured from outside
 * the layer it describes.
 */
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Median wall time of one call of @p fn in ns: @p reps timed rounds of
 * @p inner back-to-back calls each.
 */
template <typename Fn>
double
medianCallNs(int reps, int inner, Fn &&fn)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < inner; ++i)
            fn();
        per.push_back(msSince(t0) * 1e6 / inner);
    }
    return median(std::move(per));
}

/**
 * One workload: a curve served with a traffic mix at an offered load
 * and searched by the Pareto search, and a slice of the curve catalog
 * pushed through the compile flow. All three run in one process per
 * workload.
 */
struct WorkloadSpec
{
    std::string name;
    std::string curve; ///< served and searched
    /** Request kinds in pool order, repeated (2:1:1 = bls,bls,kzg,zk). */
    std::vector<finesse::RequestKind> pattern;
    int corrupted = 0;     ///< corrupted pool requests, seeded positions
    double openRate = 0;   ///< open-loop offered load, requests/s
    std::vector<std::string> catalog; ///< compile-flow curves
};

const WorkloadSpec *findWorkload(const std::string &name);

// Fixed shape of the serving engine and its load generators.
constexpr int kBatch = 16;       ///< requests fused per multi-pairing
constexpr int kLanes = 2;        ///< verifier lanes
constexpr int kPool = 256;       ///< distinct pre-generated requests
constexpr int kWindow = 96;      ///< closed-loop outstanding requests
constexpr int kOpenMin = 1000;   ///< open-loop samples: >= 10 beyond p99
/// Closed-loop time, and open-loop requests at the workload's rate,
/// as shares of --seconds (summed over the steps).
constexpr double kClosedShare = 0.5;
constexpr double kOpenShare = 0.6;
constexpr int kValidateVectors = 2;
/// A catalog step repeats its pass until this share of --seconds.
constexpr double kCatalogShare = 0.2;
constexpr int kDseGenerations = 2;
constexpr int kDsePopulation = 32;
constexpr int kDseJobs = 2;
/// Interleaved steps of a run: each sets up, serves, sets up again;
/// then even steps compile the catalog, odd steps search.
constexpr int kSteps = 4;
/// Probe requests checked outside the timed traffic: one batch with a
/// corrupted request at every kProbeStride-th position.
constexpr int kProbeStride = 5;
constexpr finesse::u64 kSearchSeed = 1; ///< fixed: the frontier is pinned

/** The serving engine's shape: kBatch requests per batch, kLanes lanes. */
finesse::ServeOptions engineOptions();

struct RunConfig
{
    const WorkloadSpec *spec = nullptr;
    finesse::u64 seed = 1;
    double seconds = 20;
    bool trace = false;
};

/**
 * Everything one run measured. `e2e` holds the end-to-end metrics,
 * `layer` the per-layer metrics, `det` the deterministic counts that
 * must repeat exactly (kept as strings so 64-bit values survive).
 */
struct Report
{
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    std::map<std::string, std::string> det;
    std::vector<std::string> errors; ///< correctness failures
    size_t attempted = 0;
    size_t failed = 0;

    void fail(const std::string &what) { errors.push_back(what); }
};

// Spans ---------------------------------------------------------------
//
// Spans are named "<layer>.<call>"; the layer is the src/ module whose
// public function the span wraps ("bench" marks the benchmark's own
// structure). They are kept in memory and only recorded while tracing
// is on, so an untraced run pays one branch per span.

void setTracing(bool on);

class Span
{
  public:
    /** Child of the innermost open span on this thread. */
    explicit Span(const char *name);
    /** Child of span @p parent (opened on another thread). */
    Span(const char *name, int parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    int id_ = -1;
};

/** Self time (span minus its child spans) summed per layer, in ms. */
std::map<std::string, double> layerSelfMs();

/** Write every span as Chrome trace-event JSON. */
void writeTrace(const std::string &path);

// Phases --------------------------------------------------------------
//
// A run interleaves its phases over kSteps steps: every step sets up,
// serves a closed and an open chunk and sets up again; even steps then
// compile the catalog, odd steps search. Each metric so samples the whole run
// instead of one stretch of it: a slow stretch of the host weighs on
// every metric alike rather than on one.

/**
 * The serving product: one engine and one request pool for the whole
 * run. Each step runs a closed-loop chunk, then an open-loop chunk.
 */
class ServePhase
{
  public:
    explicit ServePhase(const RunConfig &cfg);
    ~ServePhase();

    ServePhase(const ServePhase &) = delete;
    ServePhase &operator=(const ServePhase &) = delete;

    void step(double closedS, size_t openRequests);

    /** Metrics of all steps, the aligned replay, the layer replay. */
    void finish(Report &rep);

  private:
    struct State;
    std::unique_ptr<State> st_;
};

/**
 * The catalog compile flow: passes over the catalog slice until the
 * step has taken kCatalogShare of the run's seconds (at least one).
 */
class CatalogPhase
{
  public:
    explicit CatalogPhase(const RunConfig &cfg);
    ~CatalogPhase();

    CatalogPhase(const CatalogPhase &) = delete;
    CatalogPhase &operator=(const CatalogPhase &) = delete;

    void step(Report &rep);
    void finish(Report &rep);

  private:
    struct State;
    std::unique_ptr<State> st_;
};

/**
 * The Pareto search, once per step(), each on a cleared trace cache.
 */
class SearchPhase
{
  public:
    explicit SearchPhase(const RunConfig &cfg);
    ~SearchPhase();

    SearchPhase(const SearchPhase &) = delete;
    SearchPhase &operator=(const SearchPhase &) = delete;

    void step(Report &rep);
    void finish(Report &rep);

  private:
    struct State;
    std::unique_ptr<State> st_;
};

/** Curve-system set-up, twice a step; the median is setup_s. */
class SetupPhase
{
  public:
    /** Builds the process-wide curve handles the run uses. */
    explicit SetupPhase(const RunConfig &cfg);
    ~SetupPhase();

    SetupPhase(const SetupPhase &) = delete;
    SetupPhase &operator=(const SetupPhase &) = delete;

    /** Fresh curve systems, engine start + warm batch, Explorer. */
    void step();
    void finish(Report &rep);

  private:
    struct State;
    std::unique_ptr<State> st_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
