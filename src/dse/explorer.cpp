/**
 * @file
 * Explorer implementation. evaluate()/evaluateAll() run the batched
 * backend engine: design points are grouped by front-end trace key,
 * each group's cached trace is shared un-cloned (Framework::
 * traceShared) and prepped once (TracePrep), and every worker thread
 * evaluates its points with one reusable BackendScratch. The grouped
 * engine is identity-tested against per-point Framework::compile
 * evaluation (tests/test_parallel_dse.cpp).
 */
#include "dse/explorer.h"

#include <unordered_map>

#include "compiler/backendprep.h"
#include "support/threadpool.h"

namespace finesse {

namespace {

/** Per-worker reusable backend buffers (one per thread, never shared). */
BackendScratch &
workerScratch()
{
    static thread_local BackendScratch scratch;
    return scratch;
}

/**
 * One design point on the batched engine: backend artifacts + cycle
 * simulation + area/timing models against the shared immutable
 * (module, prep), without cloning the module or materializing the
 * binary. Equal to the per-point Framework::compile path by the
 * engine-identity and encoding-layout contracts.
 */
DsePoint
evaluatePoint(const Framework &fw, const Module &m, const TracePrep &prep,
              const CompileOptions &opt, int cores,
              const std::string &label, const OptStats &stats,
              BackendScratch &scratch)
{
    DsePoint p;
    p.label = label;
    p.variants = opt.variants;
    p.hw = opt.hw;
    p.cores = cores;
    p.opt = stats;

    BackendPoint &bp = scratch.point;
    runBackendPoint(m, prep, opt.hw, opt.listSchedule, scratch, bp);
    p.instrs = m.size();
    p.mulInstrs = prep.mulInstrs;
    p.linInstrs = prep.linInstrs;
    p.compileSeconds = bp.seconds;

    appendBackendStats(p.opt, bp); // --pass-stats rows, as compile

    const int fpBits = fw.info().logP();
    fillModelMetrics(
        p, fpBits,
        simulateCycles(m, bp.banks, bp.schedule, opt.hw, 10000, 64,
                       &scratch),
        AreaModel().report(designPoint(fpBits, opt.hw, cores, bp.banks,
                                       bp.regs, bp.imemBits)));
    return p;
}

/**
 * Request indices grouped by front-end trace key (traceCacheKey under
 * @p curve as given): groups in first-appearance order, indices
 * ascending.
 */
std::vector<std::vector<size_t>>
groupByTraceKey(const std::string &curve,
                const std::vector<DseRequest> &points)
{
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<std::string, size_t> keyIndex;
    for (size_t i = 0; i < points.size(); ++i) {
        const auto [it, inserted] = keyIndex.emplace(
            traceCacheKey(curve, points[i].opt), groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

} // namespace

void
fillModelMetrics(DsePoint &p, int fpBits, const CycleStats &sim,
                 const AreaReport &area)
{
    p.cycles = sim.totalCycles;
    p.ipc = sim.ipc();
    p.areaMm2 = area.totalArea;

    TimingModel timing;
    p.criticalPathNs = timing.criticalPathNs(fpBits, p.hw.longLat);
    p.freqMHz = timing.frequencyMHz(fpBits, p.hw.longLat);

    p.latencyUs = static_cast<double>(p.cycles) / p.freqMHz;
    p.throughputOps =
        p.cores * p.freqMHz * 1e6 / static_cast<double>(p.cycles);
    p.thptPerArea = p.throughputOps / p.areaMm2;
}

DsePoint
Explorer::evaluate(const CompileOptions &opt, int cores,
                   const std::string &label) const
{
    return evaluateAll({DseRequest{opt, cores, label}}, 1)[0];
}

std::vector<DsePoint>
Explorer::evaluateAll(const std::vector<DseRequest> &points,
                      int jobs) const
{
    std::vector<DsePoint> out(points.size());

    // Bucket requests by trace key.
    struct TraceGroup
    {
        std::shared_ptr<const Module> module;
        TracePrep prep;
        OptStats stats;
    };
    const std::vector<std::vector<size_t>> byKey =
        groupByTraceKey(curve_, points);
    std::vector<TraceGroup> groups(byKey.size());
    std::vector<size_t> groupOf(points.size());
    for (size_t g = 0; g < byKey.size(); ++g) {
        for (size_t i : byKey[g])
            groupOf[i] = g;
    }

    // Phase A: one shared trace + prep per group. Tracing goes
    // through the process-wide cache (concurrent same-key requests
    // from other sweeps still coalesce) unless any request of the
    // group disables it, so the option does not depend on request
    // order; by the trace-cache contract the module is bit-identical
    // either way.
    parallelFor(groups.size(), jobs, [&](size_t g) {
        TraceGroup &grp = groups[g];
        CompileOptions opt = points[byKey[g][0]].opt;
        for (size_t i : byKey[g])
            opt.useTraceCache = opt.useTraceCache &&
                                points[i].opt.useTraceCache;
        grp.module = fw_.traceShared(opt, grp.stats);
        grp.prep = buildTracePrep(*grp.module);
    });

    // Phase B: every point against its group's immutable shared state,
    // with per-worker reusable scratch.
    parallelFor(points.size(), jobs, [&](size_t i) {
        const TraceGroup &grp = groups[groupOf[i]];
        out[i] = evaluatePoint(fw_, *grp.module, grp.prep,
                               points[i].opt, points[i].cores,
                               points[i].label, grp.stats,
                               workerScratch());
    });
    return out;
}

DsePoint
Explorer::evaluateModule(const Module &m, const PipelineModel &hw,
                         int cores, const std::string &label) const
{
    const TracePrep prep = buildTracePrep(m);
    OptStats stats;
    stats.instrsBefore = stats.instrsAfter = m.size();
    CompileOptions opt;
    opt.hw = hw;
    return evaluatePoint(fw_, m, prep, opt, cores, label, stats,
                         workerScratch());
}

std::vector<int>
Explorer::towerDegrees() const
{
    if (fw_.info().k == 24)
        return {2, 4, 12, 24};
    return {2, 6, 12};
}

std::vector<VariantConfig>
Explorer::variantSpace(bool mulOnly) const
{
    const std::vector<int> degrees = towerDegrees();
    std::vector<VariantConfig> space{VariantConfig{}};
    auto expand = [&](auto fn) {
        std::vector<VariantConfig> next;
        for (const VariantConfig &base : space)
            fn(base, next);
        space = std::move(next);
    };
    for (int d : degrees) {
        const bool cubic = d == 6 || (d == 12 && fw_.info().k == 24);
        expand([&](const VariantConfig &base,
                   std::vector<VariantConfig> &next) {
            for (MulVariant mv :
                 {MulVariant::Schoolbook, MulVariant::Karatsuba}) {
                if (mulOnly) {
                    VariantConfig cfg = base;
                    cfg.levels[d].mul = mv;
                    cfg.levels[d].sqr = cubic ? SqrVariant::CHSqr3
                                              : SqrVariant::Complex;
                    next.push_back(cfg);
                    continue;
                }
                const std::vector<SqrVariant> sqrs =
                    cubic ? std::vector<SqrVariant>{
                                SqrVariant::Schoolbook,
                                SqrVariant::CHSqr2, SqrVariant::CHSqr3}
                          : std::vector<SqrVariant>{
                                SqrVariant::Schoolbook,
                                SqrVariant::Complex};
                for (SqrVariant sv : sqrs) {
                    VariantConfig cfg = base;
                    cfg.levels[d] = {mv, sv};
                    next.push_back(cfg);
                }
            }
        });
    }
    return space;
}

VariantConfig
Explorer::allKaratsuba() const
{
    VariantConfig cfg;
    for (int d : towerDegrees()) {
        const bool cubic = d == 6 || (d == 12 && fw_.info().k == 24);
        cfg.levels[d] = {MulVariant::Karatsuba,
                         cubic ? SqrVariant::CHSqr3 : SqrVariant::Complex};
    }
    return cfg;
}

VariantConfig
Explorer::allSchoolbook() const
{
    VariantConfig cfg;
    for (int d : towerDegrees())
        cfg.levels[d] = {MulVariant::Schoolbook, SqrVariant::Schoolbook};
    return cfg;
}

VariantConfig
Explorer::manualHeuristic() const
{
    // Single-issue heuristic (Sec. 2.2 / Fig. 2): Karatsuba saves Long
    // instructions at high tower levels but its extra linear ops hurt
    // low levels on single-issue pipelines -> Schoolbook below, CH-SQR/
    // Karatsuba above.
    VariantConfig cfg = allKaratsuba();
    for (int d : towerDegrees()) {
        if (d <= 4)
            cfg.levels[d].mul = MulVariant::Schoolbook;
    }
    return cfg;
}

double
Explorer::score(const DsePoint &p, Objective objective)
{
    switch (objective) {
      case Objective::MinCycles:
        return -static_cast<double>(p.cycles);
      case Objective::MaxThroughput:
        return p.throughputOps;
      case Objective::MaxThptPerArea:
        return p.thptPerArea;
      case Objective::MinArea:
        return -p.areaMm2;
    }
    return 0;
}

DsePoint
Explorer::exploreVariants(const PipelineModel &hw, Objective objective,
                          bool mulOnly) const
{
    CompileOptions base;
    base.hw = hw;
    return exploreVariants(base, objective, mulOnly);
}

DsePoint
Explorer::exploreVariants(const CompileOptions &base, Objective objective,
                          bool mulOnly) const
{
    std::vector<DseRequest> reqs;
    for (const VariantConfig &cfg : variantSpace(mulOnly)) {
        DseRequest req;
        req.opt = base;
        req.opt.variants = cfg;
        req.label = "explored";
        reqs.push_back(std::move(req));
    }
    const std::vector<DsePoint> points = evaluateAll(reqs, base.jobs);

    // Stable index-ordered reduction: identical to the serial loop
    // for every jobs value (strictly-greater keeps the earliest
    // combination on ties).
    DsePoint best;
    bool first = true;
    for (const DsePoint &p : points) {
        if (first || score(p, objective) > score(best, objective)) {
            best = p;
            first = false;
        }
    }
    best.label = "optimal";
    return best;
}

std::vector<PipelineModel>
fig10HardwareModels()
{
    std::vector<PipelineModel> models;
    {
        PipelineModel deep; // L=38, S=8, single issue
        models.push_back(deep);
    }
    for (int lin : {1, 2, 4, 6}) {
        PipelineModel m;
        m.longLat = 8;
        m.shortLat = 2;
        m.numLinUnits = lin;
        m.issueWidth = lin > 1 ? lin + 1 : 1;
        m.numBanks = std::max(m.issueWidth, 1);
        m.writebackFifo = m.issueWidth > 1;
        models.push_back(m);
    }
    return models;
}

std::vector<DseRequest>
fig10Grid(const Explorer &ex)
{
    std::vector<VariantConfig> cfgs = {ex.manualHeuristic(),
                                       ex.allSchoolbook(),
                                       ex.allKaratsuba()};
    const char *const presetLabels[kFig10Presets] = {"Manual", "All sch.",
                                                     "All karat."};
    const std::vector<VariantConfig> space = ex.variantSpace(true);
    cfgs.insert(cfgs.end(), space.begin(), space.end());

    std::vector<DseRequest> reqs;
    for (const PipelineModel &hw : fig10HardwareModels()) {
        for (size_t c = 0; c < cfgs.size(); ++c) {
            DseRequest req;
            req.opt.variants = cfgs[c];
            req.opt.hw = hw;
            req.label = c < kFig10Presets ? presetLabels[c] : "probe";
            reqs.push_back(std::move(req));
        }
    }
    return reqs;
}

} // namespace finesse
