/**
 * @file
 * Figure 10 reproduction: design-space search over operator-variant
 * combinations and representative pipeline configurations (BLS24-509).
 * Rows: Manual (single-issue heuristic), All-Schoolbook, All-Karatsuba,
 * Optimal (exhaustive search over the multiplication-variant space).
 * Columns: the five pipeline configurations of the paper.
 *
 * The sweep is embarrassingly parallel -- every (variants, pipeline)
 * cell is an independent compile + simulate + area evaluation -- so it
 * runs twice through Explorer::evaluateAll: once serial (--jobs 1) and
 * once on all hardware threads. Both sweeps must produce identical
 * cycle counts (the determinism contract of the parallel engine); the
 * wall-clock ratio and the trace-cache miss/hit/coalesce counters are
 * reported and written to BENCH_dse.json for trend tracking.
 *
 * Front-end traces are hardware-independent, so the grouped sweep
 * engine traces each variant combination exactly once through the
 * process-wide sharded trace cache (concurrent requests for the same
 * combination coalesce onto a single trace) and then runs batched
 * backend-only evaluation -- shared TracePrep, per-worker scratch --
 * for every additional pipeline model.
 */
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_common.h"
#include "dse/distributor.h"
#include "dse/explorer.h"
#include "support/diskcache.h"
#include "support/threadpool.h"

using namespace finesse;

namespace {

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    // This bench is its own distributed-sweep worker pool: the master
    // re-executes the binary as `<self> dse-worker` for each worker.
    if (const std::optional<int> rc = maybeRunDseWorkerMain(argc, argv))
        return *rc;

    banner("Figure 10: DSE over variants x pipeline configs");
    // Every leg up to the warm distributed one must be cache-cold
    // and deterministic regardless of the ambient environment.
    unsetenv(kArtifactCacheEnv);
    configureArtifactCache("");
    const char *curve = fastMode() ? "BN254N" : "BLS24-509";
    Explorer ex(curve);
    std::printf("curve: %s (cycle counts, x1000)\n\n", curve);

    const std::vector<PipelineModel> models = fig10HardwareModels();

    struct Row
    {
        std::string name;
        VariantConfig cfg;
    };
    const std::vector<Row> rows = {
        {"Manual", ex.manualHeuristic()},
        {"All sch.", ex.allSchoolbook()},
        {"All karat.", ex.allKaratsuba()},
    };
    const auto space = ex.variantSpace(true);

    // One flat request list: the three preset rows plus the full
    // mul-variant space for the "Optimal" search, each against every
    // pipeline model. Ordered model-major (all variant combos for
    // model 0, then model 1, ...) so ADJACENT requests carry DISTINCT
    // trace keys: the workers' dynamic schedule then traces different
    // keys concurrently instead of piling onto one in-flight trace.
    std::vector<VariantConfig> cfgs;
    for (const Row &row : rows)
        cfgs.push_back(row.cfg);
    cfgs.insert(cfgs.end(), space.begin(), space.end());

    std::vector<DseRequest> reqs;
    for (const PipelineModel &hw : models) {
        for (size_t c = 0; c < cfgs.size(); ++c) {
            DseRequest req;
            req.opt.variants = cfgs[c];
            req.opt.hw = hw;
            req.label = c < rows.size() ? rows[c].name : "probe";
            reqs.push_back(std::move(req));
        }
    }

    // Serial reference sweep, then the parallel sweep on all hardware
    // threads. Both start from a cold cache so the trace work is
    // comparable; the parallel pass exercises shard contention and
    // in-flight coalescing (models.size() workers can race for the
    // same variant trace).
    clearTraceCache();
    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<DsePoint> serial = ex.evaluateAll(reqs, 1);
    const double serialSeconds = wallSeconds(t1);
    const TraceCacheStats serialCache = traceCacheStats();

    // Front-end / backend wall-time split: re-run the serial sweep
    // with the trace cache warm -- that pass is backend-only, so the
    // difference against the cold sweep is the front-end (CodeGen +
    // IROpt) share. Tracks where sweep time goes across PRs.
    const auto tWarm = std::chrono::steady_clock::now();
    const std::vector<DsePoint> warm = ex.evaluateAll(reqs, 1);
    const double backendSerialSeconds = wallSeconds(tWarm);
    const double frontendSerialSeconds =
        std::max(serialSeconds - backendSerialSeconds, 0.0);
    size_t warmMismatches = 0;
    for (size_t i = 0; i < warm.size(); ++i)
        warmMismatches += warm[i].cycles != serial[i].cycles;

    const int jobs = resolveJobs(0);
    clearTraceCache();
    const auto t2 = std::chrono::steady_clock::now();
    const std::vector<DsePoint> points = ex.evaluateAll(reqs, jobs);
    const double parallelSeconds = wallSeconds(t2);
    const TraceCacheStats cache = traceCacheStats();

    // Distributed legs: the same sweep fanned out over worker
    // subprocesses that dial back over loopback TCP (multi-process
    // engine, dse/distributor.h). In the cold leg the worker
    // processes trace from their own cold caches, so it measures the
    // full remote cost: wire round trip + per-worker front end +
    // batched backend. Must be bit-identical like every other leg.
    const int dseWorkers = 2;
    struct DistLeg
    {
        const char *name;
        double seconds = 0;
        size_t mismatches = 0;
        DistributorStats stats;
    };
    std::vector<DistLeg> distLegs = {
        {"loopback_tcp", 0, 0, {}},
        {"loopback_tcp_warm", 0, 0, {}},
    };
    auto runDistLeg = [&](DistLeg &leg) {
        DistributorOptions dopts;
        dopts.stats = &leg.stats;
        const auto t3 = std::chrono::steady_clock::now();
        const std::vector<DsePoint> dist =
            ex.evaluateAllDistributed(reqs, dseWorkers, dopts);
        leg.seconds = wallSeconds(t3);
        for (size_t i = 0; i < dist.size(); ++i) {
            if (dist[i].cycles != serial[i].cycles ||
                dist[i].instrs != serial[i].instrs ||
                dist[i].ipc != serial[i].ipc ||
                dist[i].areaMm2 != serial[i].areaMm2)
                ++leg.mismatches;
        }
    };
    runDistLeg(distLegs[0]);

    // Warm distributed leg: prime the persistent artifact cache with
    // every front-end trace from the master process, export the cache
    // dir so the spawned workers inherit it, and re-run the sweep.
    // Each worker then loads every trace from disk instead of
    // re-tracing it, isolating the spawn + handshake + wire + backend
    // remainder -- the cold leg above keeps the gated trend line, and
    // the cold/warm split shows how much per-worker front-end
    // duplication the persistent cache recovers. Results must stay
    // bit-identical.
    const std::string artifactDir = "fig10_artifact_cache";
    setenv(kArtifactCacheEnv, artifactDir.c_str(), 1);
    configureArtifactCache(artifactDir);
    clearTraceCache();
    for (const VariantConfig &cfg : cfgs) {
        CompileOptions opt;
        opt.variants = cfg;
        OptStats stats;
        (void)ex.framework().traceShared(opt, stats); // writes artifact
    }
    runDistLeg(distLegs[1]);
    unsetenv(kArtifactCacheEnv);
    configureArtifactCache("");

    // Determinism contract: the parallel and distributed sweeps are
    // bit-identical to the serial one. Counted per leg (parallel /
    // warm / cold and warm distributed) so an identity failure in CI
    // names the engine that diverged.
    size_t parallelMismatches = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].cycles != serial[i].cycles ||
            points[i].instrs != serial[i].instrs)
            ++parallelMismatches;
    }
    size_t distributedMismatches = 0;
    for (const DistLeg &leg : distLegs)
        distributedMismatches += leg.mismatches;
    const size_t mismatches = parallelMismatches + distributedMismatches;

    TextTable t;
    std::vector<std::string> header = {"Variant combo"};
    for (const PipelineModel &m : models)
        header.push_back(m.describe());
    t.header(header);

    auto cell = [&](size_t cfgIdx, size_t model) -> const DsePoint & {
        return points[model * cfgs.size() + cfgIdx];
    };
    for (size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> cells = {rows[r].name};
        for (size_t m = 0; m < models.size(); ++m)
            cells.push_back(fmt(double(cell(r, m).cycles) / 1e3, 1));
        t.row(cells);
    }

    // Optimal: exhaustive over the mul-variant space per hw model
    // (index-ordered scan => same winner as the serial sweep).
    std::vector<std::string> optCells = {"Optimal"};
    std::vector<std::string> optWhich = {"(combo)"};
    for (size_t m = 0; m < models.size(); ++m) {
        i64 best = -1;
        size_t bestIdx = 0;
        for (size_t i = 0; i < space.size(); ++i) {
            const DsePoint &p = cell(rows.size() + i, m);
            if (best < 0 || p.cycles < best) {
                best = p.cycles;
                bestIdx = i;
            }
        }
        optCells.push_back(fmt(double(best) / 1e3, 1));
        std::string which;
        for (int d : ex.towerDegrees()) {
            which += space[bestIdx].level(d).mul == MulVariant::Karatsuba
                         ? "K"
                         : "S";
        }
        optWhich.push_back(which);
    }
    t.row(optCells);
    t.row(optWhich);
    t.print();

    const double speedup =
        parallelSeconds > 0 ? serialSeconds / parallelSeconds : 0.0;
    std::printf(
        "\n(combo) row: chosen mul variant per tower level, lowest "
        "degree first (K = Karatsuba, S = Schoolbook).\n"
        "Shape checks (paper): Manual beats All-karat. on the "
        "single-issue models and is near optimal; with more linear "
        "units All-karat. becomes viable again.\n"
        "Trace cache: %zu front-end traces, %zu warm lookups, %zu "
        "coalesced waits (grouped engine: one lookup per trace key, "
        "batched backend for all %zu points).\n"
        "Sweep: %zu points | serial %.2f s (front end %.2f s + "
        "backend %.2f s) | parallel %.2f s on %d workers | speedup "
        "%.2fx | %zu parallel + %zu warm mismatches\n",
        cache.misses, cache.hits, cache.coalesced, points.size(),
        points.size(), serialSeconds, frontendSerialSeconds,
        backendSerialSeconds, parallelSeconds, jobs, speedup,
        parallelMismatches, warmMismatches);
    for (const DistLeg &leg : distLegs) {
        std::printf(
            "Distributed (%s): %.2f s on %d worker processes (%zu "
            "groups, %d spawned, %d deaths, %d net faults) | speedup "
            "%.2fx vs serial | %zu mismatches\n",
            leg.name, leg.seconds, dseWorkers, leg.stats.groups,
            leg.stats.workersSpawned, leg.stats.workerDeaths,
            leg.stats.networkFaultsInjected,
            leg.seconds > 0 ? serialSeconds / leg.seconds : 0.0,
            leg.mismatches);
    }

    BenchJson json;
    json.str("bench", "fig10_dse")
        .str("curve", curve)
        .count("points", points.size())
        .count("jobs", static_cast<size_t>(jobs))
        .num("serial_seconds", serialSeconds)
        .num("frontend_serial_seconds", frontendSerialSeconds)
        .num("backend_serial_seconds", backendSerialSeconds)
        .num("parallel_seconds", parallelSeconds)
        .num("speedup", speedup)
        .count("dse_workers", static_cast<size_t>(dseWorkers));
    // Aggregate keys (cold leg; distributed_speedup is gated), then
    // one block per leg. The fault-tolerance counters are
    // informational, not gated: all zero on a healthy run, non-zero
    // under an ambient FINESSE_DSE_FAULT plan or a loaded machine --
    // trend tracking only.
    const DistLeg &coldLeg = distLegs[0];
    json.num("distributed_seconds", coldLeg.seconds)
        .num("distributed_speedup",
             coldLeg.seconds > 0 ? serialSeconds / coldLeg.seconds
                                 : 0.0)
        .count("distributed_groups", coldLeg.stats.groups)
        .count("distributed_worker_deaths",
               static_cast<size_t>(coldLeg.stats.workerDeaths));
    for (const DistLeg &leg : distLegs) {
        const std::string p = std::string("distributed_") + leg.name;
        const DistributorStats &s = leg.stats;
        json.num(p + "_seconds", leg.seconds)
            .num(p + "_speedup",
                 leg.seconds > 0 ? serialSeconds / leg.seconds : 0.0)
            .count(p + "_worker_deaths",
                   static_cast<size_t>(s.workerDeaths))
            .count(p + "_redispatches",
                   static_cast<size_t>(s.redispatches))
            .count(p + "_timeout_kills",
                   static_cast<size_t>(s.timeoutKills))
            .count(p + "_handshake_failures",
                   static_cast<size_t>(s.handshakeFailures))
            .count(p + "_fallback_groups",
                   static_cast<size_t>(s.fallbackGroups))
            .count(p + "_remote_connects",
                   static_cast<size_t>(s.remoteConnects))
            .count(p + "_remote_connect_failures",
                   static_cast<size_t>(s.remoteConnectFailures))
            .count(p + "_net_faults",
                   static_cast<size_t>(s.networkFaultsInjected))
            .count(p + "_mismatches", leg.mismatches);
    }
    json.count("parallel_mismatches", parallelMismatches)
        .count("warm_mismatches", warmMismatches)
        .count("distributed_mismatches", distributedMismatches)
        .count("trace_misses", cache.misses)
        .count("trace_hits", cache.hits)
        .count("trace_coalesced", cache.coalesced)
        .count("serial_trace_misses", serialCache.misses)
        .count("determinism_mismatches", mismatches + warmMismatches);
    json.write("BENCH_dse.json");

    return mismatches + warmMismatches == 0 ? 0 : 1;
}
