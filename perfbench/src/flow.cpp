/**
 * @file
 * The compiler product of a workload: the catalog compile flow
 * (compile -> validate -> simulate -> area per curve) and the Pareto
 * search, each repeated for its time budget, plus their replays
 * through the lower layers when tracing.
 */
#include "bench.h"
#include "compiler/backendprep.h"
#include "core/framework.h"
#include "dse/search.h"

using namespace finesse;

namespace perfbench {

namespace {

/** One curve through the standard flow. */
struct FlowResult
{
    size_t instrs = 0;
    i64 cycles = 0;
    double areaMm2 = 0;
    bool valid = false;
};

FlowResult
flowCurve(const std::string &curve, double &validateMs)
{
    Span span("bench.flow_curve");
    const Framework fw(curve);
    FlowResult out;
    CompileResult res;
    {
        // A cold front end every time, past the shared trace cache.
        Span s("compiler.compile");
        CompileOptions opt;
        opt.useTraceCache = false;
        res = fw.compile(opt);
    }
    {
        Span s("sim.validate");
        const auto t0 = Clock::now();
        out.valid = fw.validate(res, kValidateVectors).allPassed();
        validateMs += msSince(t0);
    }
    {
        Span s("sim.simulate");
        out.cycles = fw.simulate(res).totalCycles;
    }
    {
        Span s("hwmodel.area");
        out.areaMm2 = fw.area(res).totalArea;
    }
    out.instrs = res.instrs();
    return out;
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Area of a backend point, built as Explorer builds it. */
AreaReport
pointArea(const CurveInfo &info, const PipelineModel &hw, int cores,
          const BackendPoint &bp)
{
    DesignPoint dp;
    dp.fpBits = info.logP();
    dp.longDepth = hw.longLat;
    dp.numLinUnits = hw.numLinUnits;
    dp.cores = cores;
    dp.imemBits = bp.imemBits;
    for (const i32 w : bp.regs.maxRegsPerBank)
        dp.dmemWords += static_cast<size_t>(w);
    dp.numBanks = bp.banks.numBanks;
    return AreaModel().report(dp);
}

/**
 * Catalog replay: each curve's front end on a cleared cache, the
 * backend pipeline, the cycle simulator and the area model, timed one
 * call at a time.
 */
void
replayCatalog(const WorkloadSpec &spec, Report &rep)
{
    Span root("bench.replay_catalog");
    double traceMs = 0, iroptMs = 0, backendMs = 0, areaUs = 0;
    size_t traced = 0, kept = 0;
    for (const std::string &curve : spec.catalog) {
        clearTraceCache();
        const Framework fw(curve);
        OptStats stats;
        std::shared_ptr<const Module> module;
        auto t0 = Clock::now();
        {
            Span s("compiler.traceShared");
            module = fw.traceShared(CompileOptions{}, stats);
        }
        traceMs += msSince(t0);
        for (const PassStats &ps : stats.passes)
            if (ps.frontend)
                iroptMs += ps.seconds * 1e3;
        traced += stats.instrsBefore;
        kept += stats.instrsAfter;

        Module copy = *module;
        CompileResult res;
        t0 = Clock::now();
        {
            Span s("compiler.runBackend");
            res = runBackend(std::move(copy), PipelineModel{});
        }
        backendMs += msSince(t0);
        {
            Span s("sim.simulateCycles");
            (void)simulateCycles(res.prog);
        }
        t0 = Clock::now();
        {
            Span s("hwmodel.report");
            for (int i = 0; i < 100; ++i)
                (void)fw.area(res);
        }
        areaUs += msSince(t0) * 10; // per call, in us
    }
    rep.layer["compiler.trace_ms"] = traceMs;
    rep.layer["compiler.iropt_ms"] = iroptMs;
    rep.layer["compiler.backend_ms"] = backendMs;
    rep.layer["ir.iropt_reduction"] =
        traced ? double(traced - kept) / double(traced) : 0.0;
    rep.layer["hwmodel.area_us"] = areaUs / double(spec.catalog.size());
}

/**
 * Search replay: a seeded sample of frontier points, each through the
 * batched backend engine step by step. Cycles must match the search.
 */
void
replaySearch(const Explorer &ex, const SearchResult &res, u64 seed,
             Report &rep)
{
    Span root("bench.replay_search");
    Rng rng(seed ^ 0xd5eull);
    const Framework &fw = ex.framework();
    double prepMs = 0, pointMs = 0, cycleMs = 0;
    i64 cycles = 0;
    size_t instrs = 0;
    const int samples = 4;
    BackendScratch scratch;
    for (int k = 0; k < samples; ++k) {
        const DsePoint &p = res.frontier[rng.below(res.frontier.size())];
        CompileOptions opt;
        opt.variants = p.variants;
        opt.hw = p.hw;
        OptStats stats;
        std::shared_ptr<const Module> module;
        {
            Span s("compiler.traceShared");
            module = fw.traceShared(opt, stats);
        }
        auto t0 = Clock::now();
        TracePrep prep;
        {
            Span s("compiler.buildTracePrep");
            prep = buildTracePrep(*module);
        }
        prepMs += msSince(t0);
        BackendPoint bp;
        t0 = Clock::now();
        {
            Span s("compiler.runBackendPoint");
            runBackendPoint(*module, prep, opt.hw, opt.listSchedule,
                            scratch, bp);
        }
        pointMs += msSince(t0);
        CycleStats sim;
        t0 = Clock::now();
        {
            Span s("sim.simulateCycles");
            sim = simulateCycles(*module, bp.banks, bp.schedule, opt.hw,
                                 10000, 64, &scratch);
        }
        cycleMs += msSince(t0);
        {
            Span s("hwmodel.report");
            if (pointArea(fw.info(), opt.hw, p.cores, bp).totalArea !=
                p.areaMm2)
                rep.fail("dse replay: area differs for " + p.label);
        }
        if (sim.totalCycles != p.cycles)
            rep.fail("dse replay: cycles differ for " + p.label);
        cycles += sim.totalCycles;
        instrs += module->size();
    }
    rep.layer["compiler.prep_ms"] = prepMs / samples;
    rep.layer["compiler.point_ms"] = pointMs / samples;
    rep.layer["sim.cycle_ms"] = cycleMs / samples;
    rep.layer["sim.host_ns_per_cycle"] = cycleMs * 1e6 / double(cycles);
    rep.layer["sim.ipc"] = double(instrs) / double(cycles);
}

} // namespace

struct CatalogPhase::State
{
    const RunConfig &cfg;
    std::vector<double> passS; ///< wall time of each pass
    std::vector<FlowResult> first;
    double validateMs = 0;
};

CatalogPhase::CatalogPhase(const RunConfig &cfg)
    : st_(std::make_unique<State>(State{cfg, {}, {}, 0}))
{}

CatalogPhase::~CatalogPhase() = default;

void
CatalogPhase::step(Report &rep)
{
    State &st = *st_;
    const std::vector<std::string> &catalog = st.cfg.spec->catalog;
    const auto stepStart = Clock::now();
    do {
        Span span("bench.catalog_pass");
        std::vector<FlowResult> results;
        const auto t0 = Clock::now();
        for (size_t i = 0; i < catalog.size(); ++i) {
            rep.attempted++;
            try {
                results.push_back(flowCurve(catalog[i], st.validateMs));
            } catch (const std::exception &e) {
                rep.failed++;
                rep.fail("compile " + catalog[i] + ": " + e.what());
                results.emplace_back();
            }
        }
        st.passS.push_back(msSince(t0) / 1e3);
        if (st.first.empty())
            st.first = results;
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].valid)
                rep.fail("validate failed on " + catalog[i]);
            if (results[i].cycles != st.first[i].cycles)
                rep.fail("cycles changed between passes on " + catalog[i]);
        }
    } while (msSince(stepStart) < kCatalogShare * st.cfg.seconds * 1e3);
}

void
CatalogPhase::finish(Report &rep)
{
    const State &st = *st_;
    const WorkloadSpec &spec = *st.cfg.spec;
    size_t instrs = 0;
    double cycles = 0, area = 0, flowS = 0;
    for (const double s : st.passS)
        flowS += s;
    for (size_t i = 0; i < st.first.size(); ++i) {
        const std::string &c = spec.catalog[i];
        rep.det["ir.instrs." + c] = std::to_string(st.first[i].instrs);
        rep.det["sim.cycles." + c] = std::to_string(st.first[i].cycles);
        rep.det["hwmodel.area_mm2." + c] = exact(st.first[i].areaMm2);
        instrs += st.first[i].instrs;
        cycles += double(st.first[i].cycles);
        area += st.first[i].areaMm2;
    }
    // Mean wall time of a pass: every pass counts, slow or fast.
    rep.e2e["flow_s"] = flowS / double(st.passS.size());
    rep.e2e["model_cycles"] = cycles;
    rep.layer["ir.instrs"] = double(instrs);
    rep.layer["sim.cycles"] = cycles;
    rep.layer["hwmodel.area_mm2"] = area;
    rep.layer["sim.validate_ms"] =
        st.validateMs / double(st.passS.size() * spec.catalog.size() *
                               kValidateVectors);
    if (st.cfg.trace)
        replayCatalog(spec, rep);
}

struct SearchPhase::State
{
    State(const RunConfig &c)
        : cfg(c), ex(c.spec->curve), space(SearchSpace::standard(ex))
    {
        opt.seed = kSearchSeed;
        opt.generations = kDseGenerations;
        opt.population = kDsePopulation;
        opt.base.jobs = kDseJobs;
    }

    /** One search on a cleared trace cache, as a fresh process runs it. */
    SearchResult
    search(Report &rep)
    {
        clearTraceCache();
        Span s("dse.run");
        const auto t0 = Clock::now();
        SearchResult res = ParetoSearch(ex, space, opt).run();
        searchMs.push_back(msSince(t0));
        points += res.stats.evaluatedUnique;
        rep.attempted += res.stats.evaluatedUnique;
        if (res.frontier.empty())
            rep.fail("dse: empty frontier");
        return res;
    }

    const RunConfig &cfg;
    const Explorer ex;
    const SearchSpace space;
    SearchOptions opt;
    SearchResult first;
    TraceCacheStats traces; ///< of the first search
    std::vector<double> searchMs;
    size_t points = 0; ///< unique points, summed over the searches
};

SearchPhase::SearchPhase(const RunConfig &cfg)
    : st_(std::make_unique<State>(cfg))
{}

SearchPhase::~SearchPhase() = default;

void
SearchPhase::step(Report &rep)
{
    State &st = *st_;
    // A search traces about a dozen front ends once and serves them
    // from the cache after that; backend, cycle simulation and area
    // per point dominate its time.
    const SearchResult res = st.search(rep);
    if (st.searchMs.size() == 1) {
        st.first = res;
        st.traces = traceCacheStats();
    } else if (frontierFingerprint(res.frontier) !=
               frontierFingerprint(st.first.frontier)) {
        rep.fail("dse: frontier changed between searches");
    }
}

void
SearchPhase::finish(Report &rep)
{
    const State &st = *st_;
    const std::string &curve = st.cfg.spec->curve;
    const SearchResult &first = st.first;
    char fp[20];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(
                      frontierFingerprint(first.frontier)));
    rep.det["dse.frontier_fingerprint." + curve] = fp;
    rep.det["dse.points_unique." + curve] =
        std::to_string(first.stats.evaluatedUnique);
    rep.det["dse.best_thpt_per_area." + curve] =
        exact(first.best.thptPerArea);

    double totalMs = 0;
    for (const double ms : st.searchMs)
        totalMs += ms;
    // Points over the time of all searches together.
    rep.e2e["dse_points_per_s"] = double(st.points) / (totalMs / 1e3);
    rep.e2e["frontier_thpt_per_area"] = first.best.thptPerArea;
    auto &L = rep.layer;
    L["dse.search_ms"] = median(st.searchMs);
    L["dse.points_unique"] = double(first.stats.evaluatedUnique);
    L["dse.unique_ratio"] = double(first.stats.evaluatedUnique) /
                            double(st.opt.generations * st.opt.population);
    L["dse.trace_hits"] = double(st.traces.hits);
    L["dse.trace_misses"] = double(st.traces.misses);
    L["dse.frontier_points"] = double(first.frontier.size());
    if (st.cfg.trace && !first.frontier.empty())
        replaySearch(st.ex, first, st.cfg.seed, rep);
}

} // namespace perfbench
