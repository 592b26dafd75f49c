/**
 * @file
 * Parallel DSE tests: thread-pool semantics, the determinism contract
 * of Explorer::evaluateAll / exploreVariants (bit-identical results
 * for every jobs value), and the concurrency behavior of the
 * front-end trace cache (one trace per key under contention, in-flight
 * coalescing, clearTraceCache vs concurrent compiles).
 *
 * These tests are the ThreadSanitizer workload of the CI tsan job.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "dse/explorer.h"
#include "dsepoint_eq.h"
#include "support/threadpool.h"

namespace finesse {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
    EXPECT_GE(resolveJobs(0), 1); // hardware concurrency, >= 1
}

TEST(ThreadPool, SubmitReturnsFutures)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 32; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futs[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> seen(kCount);
    for (auto &s : seen)
        s.store(0);
    ThreadPool pool(8);
    pool.parallelFor(kCount, [&](size_t i) { seen[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      ++ran;
                                      if (i == 3)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, FreeParallelForRunsInlineWhenSerial)
{
    // jobs == 1 must not spawn threads: the body observes one
    // consistent thread id (trivially true inline; this documents the
    // contract more than it checks the implementation).
    const auto self = std::this_thread::get_id();
    parallelFor(16, 1, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

// -------------------------------------------- determinism of the sweep

/**
 * Per-point reference for the grouped engine, from public calls only:
 * every point runs Framework::compile on its own copy of the cached
 * trace, then the cycle simulator, the area model and
 * fillModelMetrics.
 */
std::vector<DsePoint>
evaluateUngrouped(const Framework &fw, const std::vector<DseRequest> &reqs,
                  int jobs)
{
    std::vector<DsePoint> out(reqs.size());
    parallelFor(reqs.size(), jobs, [&](size_t i) {
        const DseRequest &req = reqs[i];
        DsePoint &p = out[i];
        p.label = req.label;
        p.variants = req.opt.variants;
        p.hw = req.opt.hw;
        p.cores = req.cores;
        CompileResult res = fw.compile(req.opt);
        p.instrs = res.instrs();
        p.mulInstrs = res.prog.module.countUnit(UnitClass::Mul);
        p.linInstrs = res.prog.module.countUnit(UnitClass::Linear);
        p.compileSeconds = res.compileSeconds;
        fillModelMetrics(p, fw.info().logP(), simulateCycles(res.prog),
                         fw.area(res, req.cores));
        p.opt = std::move(res.opt);
    });
    return out;
}

TEST(ParallelDse, EvaluateAllMatchesSerialAcrossJobs)
{
    Explorer ex("BN254N");
    // Mul-variant space x two pipeline shapes = 16 points.
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
    for (const VariantConfig &cfg : ex.variantSpace(true)) {
        for (const PipelineModel &hw : models) {
            DseRequest req;
            req.opt.variants = cfg;
            req.opt.hw = hw;
            req.label = "pt";
            reqs.push_back(std::move(req));
        }
    }

    const std::vector<DsePoint> serial = ex.evaluateAll(reqs, 1);
    ASSERT_EQ(serial.size(), reqs.size());
    for (int jobs : {2, 8}) {
        const std::vector<DsePoint> par = ex.evaluateAll(reqs, jobs);
        ASSERT_EQ(par.size(), serial.size()) << "jobs " << jobs;
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " point " +
                         std::to_string(i));
            expectSamePoint(serial[i], par[i]);
        }
    }
}

TEST(ParallelDse, GroupedEvaluateAllMatchesUngroupedAcrossJobs)
{
    // The batched engine (grouped by trace key, shared TracePrep,
    // per-worker scratch) against the pre-batching per-point reference
    // (evaluateUngrouped: every point runs Framework::compile on its
    // own clone of the trace): deterministic fields must be
    // bit-identical for every jobs value. This test is part of the
    // TSan workload -- the grouped path shares immutable trace/prep
    // state across workers.
    Explorer ex("BN254N");
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
    for (const VariantConfig &cfg : ex.variantSpace(true)) {
        for (const PipelineModel &hw : models) {
            for (bool listSched : {true, false}) {
                DseRequest req;
                req.opt.variants = cfg;
                req.opt.hw = hw;
                req.opt.listSchedule = listSched;
                req.label = "pt";
                reqs.push_back(std::move(req));
            }
        }
    }
    {
        // Trace cache off: joins its key's group, same result.
        DseRequest req;
        req.opt.useTraceCache = false;
        req.label = "uncached";
        reqs.push_back(std::move(req));
    }

    const std::vector<DsePoint> ref =
        evaluateUngrouped(ex.framework(), reqs, 1);
    ASSERT_EQ(ref.size(), reqs.size());
    for (int jobs : {1, 2, 8}) {
        const std::vector<DsePoint> got = ex.evaluateAll(reqs, jobs);
        ASSERT_EQ(got.size(), ref.size()) << "jobs " << jobs;
        for (size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " point " +
                         std::to_string(i));
            expectSamePoint(ref[i], got[i]);
        }
    }
}

TEST(ParallelDse, UncachedRequestTracesItsGroupUncachedInAnyOrder)
{
    // A group traces uncached if any of its requests disables the
    // trace cache, whichever position that request has.
    Explorer ex("BN254N");
    for (bool uncachedFirst : {true, false}) {
        SCOPED_TRACE(uncachedFirst ? "uncached first" : "uncached last");
        clearTraceCache();
        DseRequest cached, uncached;
        cached.label = "cached";
        uncached.label = "uncached";
        uncached.opt.useTraceCache = false;
        uncached.opt.hw.longLat = 20;
        const std::vector<DseRequest> reqs =
            uncachedFirst ? std::vector<DseRequest>{uncached, cached}
                          : std::vector<DseRequest>{cached, uncached};
        ex.evaluateAll(reqs, 1);
        const TraceCacheStats s = traceCacheStats();
        EXPECT_EQ(s.hits + s.misses + s.coalesced, 0u);
        EXPECT_EQ(s.entries, 0u);
    }
}

TEST(ParallelDse, ExploreVariantsSameBestPointAcrossJobs)
{
    Explorer ex("BN254N");
    CompileOptions base;
    base.jobs = 1;
    const DsePoint serialBest =
        ex.exploreVariants(base, Objective::MinCycles, true);
    for (int jobs : {2, 8}) {
        base.jobs = jobs;
        const DsePoint best =
            ex.exploreVariants(base, Objective::MinCycles, true);
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        expectSamePoint(serialBest, best);
    }
}

// --------------------------------------------- front-end trace cache

TEST(TraceCacheConcurrency, SameKeyTracesOnceAndCoalesces)
{
    clearTraceCache();
    constexpr int kThreads = 6;
    ThreadPool pool(kThreads);
    std::vector<std::future<CompileResult>> futs;
    for (int i = 0; i < kThreads; ++i) {
        futs.push_back(pool.submit([] {
            Framework fw("BN254N");
            return fw.compile(CompileOptions{});
        }));
    }
    std::vector<CompileResult> results;
    for (auto &f : futs)
        results.push_back(f.get());

    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u); // one front-end trace, ever
    EXPECT_EQ(s.hits + s.coalesced, static_cast<size_t>(kThreads - 1));
    EXPECT_EQ(s.entries, 1u);
    for (const CompileResult &r : results) {
        EXPECT_EQ(r.instrs(), results[0].instrs());
        EXPECT_EQ(r.binary.words, results[0].binary.words);
    }
}

TEST(TraceCacheConcurrency, FullCatalogConcurrentSweepTracesOncePerKey)
{
    clearTraceCache();
    // The Fig. 10-style sweep, fanned out: every catalog curve against
    // several pipeline models, all compiling concurrently. The front
    // end must run exactly once per (curve, variants, part) key no
    // matter how the workers interleave -- concurrent same-key
    // requests coalesce instead of re-tracing.
    std::vector<PipelineModel> models;
    {
        PipelineModel deep; // single-issue L=38/S=8
        models.push_back(deep);
        PipelineModel shallow;
        shallow.longLat = 8;
        shallow.shortLat = 2;
        models.push_back(shallow);
        PipelineModel vliw;
        vliw.longLat = 8;
        vliw.shortLat = 2;
        vliw.issueWidth = 2;
        vliw.numBanks = 2;
        vliw.numLinUnits = 2;
        vliw.writebackFifo = true;
        models.push_back(vliw);
    }

    struct Job
    {
        std::string curve;
        PipelineModel hw;
    };
    std::vector<Job> jobs;
    std::set<std::string> curves;
    for (const CurveDef &def : curveCatalog()) {
        curves.insert(def.name);
        for (const PipelineModel &hw : models)
            jobs.push_back({def.name, hw});
    }

    std::vector<size_t> instrs(jobs.size(), 0);
    ThreadPool pool(8);
    pool.parallelFor(jobs.size(), [&](size_t i) {
        Framework fw(jobs[i].curve);
        CompileOptions opt;
        opt.hw = jobs[i].hw;
        instrs[i] = fw.compile(opt).instrs();
    });

    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_GT(instrs[i], 0u) << jobs[i].curve;

    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, curves.size()); // one trace per key
    EXPECT_EQ(s.hits + s.coalesced,
              curves.size() * (models.size() - 1));
    EXPECT_EQ(s.entries, curves.size());
}

TEST(TraceCacheConcurrency, EvictionAtCapacityStaysBoundedAndCorrect)
{
    clearTraceCache();
    const size_t prevCap = setTraceCacheCapacityForTesting(2);
    // Six distinct front-end keys (the pass list is part of the key)
    // against a bound of 2: every miss past the bound must evict a
    // ready entry -- concurrently, so the shared_ptr hand-off in the
    // eviction path runs under contention (and under TSan in CI).
    const std::vector<std::vector<std::string>> passLists = {
        {"constfold"},          {"gvn"},
        {"dce"},                {"constfold", "dce"},
        {"gvn", "dce"},         {"constfold", "gvn", "dce"},
    };
    std::vector<size_t> instrs(passLists.size(), 0);
    ThreadPool pool(4);
    pool.parallelFor(passLists.size(), [&](size_t i) {
        Framework fw("BN254N");
        CompileOptions opt;
        opt.part = TracePart::FinalExpOnly; // cheap trace
        opt.passes = passLists[i];
        instrs[i] = fw.compile(opt).instrs();
    });
    for (size_t i = 0; i < passLists.size(); ++i)
        EXPECT_GT(instrs[i], 0u) << "pass list " << i;

    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, passLists.size()); // all distinct keys
    // The bound is soft while traces are in flight (in-flight slots
    // are never evicted), but tasks 5 and 6 each start only after
    // their worker published a ready entry, so each of those misses
    // is guaranteed to find and evict at least one ready victim:
    // at most 6 - 2 entries can remain.
    EXPECT_LE(s.entries, 4u);

    setTraceCacheCapacityForTesting(prevCap);
    clearTraceCache();
}

TEST(TraceCacheConcurrency, ClearIsSafeAgainstConcurrentCompiles)
{
    clearTraceCache();
    // Compilers race a clearer: every compile must still return a
    // valid, identical program (a dropped cache entry means re-trace,
    // never a torn read).
    constexpr int kCompilers = 4;
    std::atomic<bool> done{false};
    ThreadPool pool(kCompilers + 1);
    std::vector<std::future<bool>> futs;
    for (int t = 0; t < kCompilers; ++t) {
        futs.push_back(pool.submit([] {
            Framework fw("BN254N");
            size_t want = 0;
            for (int i = 0; i < 3; ++i) {
                const CompileResult res = fw.compile(CompileOptions{});
                if (want == 0)
                    want = res.instrs();
                if (res.instrs() != want || res.instrs() == 0)
                    return false;
            }
            return true;
        }));
    }
    auto clearer = pool.submit([&] {
        while (!done.load()) {
            clearTraceCache();
            std::this_thread::yield();
        }
    });
    for (auto &f : futs)
        EXPECT_TRUE(f.get());
    done.store(true);
    clearer.get();

    // Counters were reset by the clearer mid-flight, so only sanity
    // holds: a final snapshot is coherent and non-negative by type.
    const TraceCacheStats s = traceCacheStats();
    EXPECT_LE(s.entries, 1u);
}

} // namespace
} // namespace finesse
