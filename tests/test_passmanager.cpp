/**
 * @file
 * PassManager-layer tests: registry and pipeline composition, pass
 * ordering, per-pass attribution (deltas sum to the aggregate
 * reduction), single-pass ablation correctness against the native
 * reference, rejection of backend stage names, and the hit/miss
 * semantics of the process-wide front-end trace cache (one trace per
 * (curve, variants, part) across a full-catalog DSE sweep).
 */
#include <gtest/gtest.h>

#include "dse/explorer.h"
#include "sim/functional.h"

namespace finesse {
namespace {

/** The backend's fixed stages, as named in the --pass-stats rows. */
const std::vector<std::string> kBackendStages = {"bankalloc", "packsched",
                                                 "regalloc", "encode"};

// ------------------------------------------------------ registry/ordering

TEST(PassRegistry, StandardPipelineOrder)
{
    EXPECT_EQ(frontendPassNames(),
              (std::vector<std::string>{"constfold", "zerooneprop",
                                        "strengthreduce", "gvn", "dce"}));
    EXPECT_EQ(PassManager::standardFrontend().names(),
              frontendPassNames());
    for (const std::string &n : frontendPassNames()) {
        EXPECT_TRUE(isFrontendPassName(n));
        EXPECT_EQ(makePass(n)->name(), n);
    }
}

TEST(PassRegistry, ParsePassListValidates)
{
    EXPECT_EQ(parsePassList(""), std::vector<std::string>{});
    EXPECT_EQ(parsePassList("gvn,dce"),
              (std::vector<std::string>{"gvn", "dce"}));
    EXPECT_EQ(parsePassList(" constfold , dce "),
              (std::vector<std::string>{"constfold", "dce"}));
    EXPECT_THROW(parsePassList("gvn,bogus"), FatalError);
    EXPECT_THROW(makePass("nope"), FatalError);
    // The backend always runs all four stages: a stage name is the
    // unknown-pass error, not an ablation.
    for (const std::string &n : kBackendStages) {
        SCOPED_TRACE(n);
        EXPECT_THROW(makePass(n), FatalError);
        try {
            parsePassList("gvn," + n);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown compiler pass"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PassRegistry, CompileOptionsFrontendPipeline)
{
    CompileOptions opt;
    EXPECT_EQ(opt.frontendPasses(), frontendPassNames());

    opt.passes = {"gvn", "dce"};
    EXPECT_EQ(opt.frontendPasses(),
              (std::vector<std::string>{"gvn", "dce"}));

    opt.passes = {"dce", "bankalloc"}; // a backend stage is not a pass
    EXPECT_THROW(opt.frontendPasses(), FatalError);
    opt.passes = {"gvn", "dce"};

    opt.optimize = false;
    EXPECT_EQ(opt.frontendPasses(), std::vector<std::string>{});
}

// --------------------------------------------------------- small modules

/** out = (a*0) + (b*1) + (a-a) + 2*b -- every pass has work to do. */
Module
smallModule()
{
    Module m;
    m.p = BigInt::fromString("1000003");
    auto id = [&] { return m.numValues++; };
    const i32 c0 = id(), c1 = id(), c2 = id();
    m.constants = {{c0, BigInt()}, {c1, BigInt(u64{1})},
                   {c2, BigInt(u64{2})}};
    const i32 aRaw = id(), bRaw = id();
    m.inputs = {aRaw, bRaw};
    const i32 a = id();
    m.body.push_back({Op::Icv, a, aRaw, -1});
    const i32 b = id();
    m.body.push_back({Op::Icv, b, bRaw, -1});
    const i32 t0 = id();
    m.body.push_back({Op::Mul, t0, a, c0});
    const i32 t1 = id();
    m.body.push_back({Op::Mul, t1, b, c1});
    const i32 t2 = id();
    m.body.push_back({Op::Sub, t2, a, a});
    const i32 t3 = id();
    m.body.push_back({Op::Mul, t3, c2, b});
    const i32 t4 = id();
    m.body.push_back({Op::Add, t4, t0, t1});
    const i32 t5 = id();
    m.body.push_back({Op::Add, t5, t4, t2});
    const i32 t6 = id();
    m.body.push_back({Op::Add, t6, t5, t3});
    const i32 out = id();
    m.body.push_back({Op::Cvt, out, t6, -1});
    m.outputs = {out};
    m.verify();
    return m;
}

TEST(PassPipeline, SinglePassSubsetsPreserveSemantics)
{
    const std::vector<std::vector<std::string>> subsets = {
        {"constfold"},      {"zerooneprop"}, {"strengthreduce"},
        {"gvn"},            {"dce"},         {"zerooneprop", "dce"},
        {"gvn", "dce"},     frontendPassNames(),
    };
    for (const auto &names : subsets) {
        Module m = smallModule();
        FpCtx fp(m.p);
        const auto want =
            runModule(m, fp, {BigInt(u64{5}), BigInt(u64{7})});
        const OptStats stats = runFrontendPipeline(m, names);
        EXPECT_LE(stats.instrsAfter, stats.instrsBefore);
        EXPECT_EQ(stats.totalRemoved(),
                  static_cast<i64>(stats.instrsBefore) -
                      static_cast<i64>(stats.instrsAfter));
        const auto got =
            runModule(m, fp, {BigInt(u64{5}), BigInt(u64{7})});
        EXPECT_EQ(got, want) << "subset failed";
    }
}

TEST(PassPipeline, EachPassAttributedOnSmallModule)
{
    Module m = smallModule();
    const OptStats stats = runFrontendPipeline(m, frontendPassNames());
    EXPECT_EQ(m.size(), 4u); // Icv(b) + Dbl + Add + Cvt
    // zerooneprop elides the three identities, dce sweeps the dead Icv.
    ASSERT_NE(stats.pass("zerooneprop"), nullptr);
    EXPECT_GT(stats.pass("zerooneprop")->instrsRemoved, 0);
    ASSERT_NE(stats.pass("dce"), nullptr);
    EXPECT_GT(stats.pass("dce")->instrsRemoved, 0);
    // strengthreduce rewrites mul-by-2 in place: no count delta.
    ASSERT_NE(stats.pass("strengthreduce"), nullptr);
    EXPECT_EQ(m.countOp(Op::Dbl), 1u);
    EXPECT_EQ(m.countOp(Op::Mul), 0u);
    // Per-pass deltas sum to the aggregate reduction.
    EXPECT_EQ(stats.totalRemoved(),
              static_cast<i64>(stats.instrsBefore) -
                  static_cast<i64>(stats.instrsAfter));
    EXPECT_GE(stats.iterations, 1);
    for (const PassStats &ps : stats.passes)
        EXPECT_EQ(ps.invocations, stats.iterations) << ps.name;
}

// ----------------------------------------------- whole-pairing pipeline

TEST(PassPipeline, PerPassDeltasSumToAggregateOnPairing)
{
    Framework fw("BN254N");
    CompileOptions opt;
    opt.useTraceCache = false;
    const CompileResult res = fw.compile(opt);
    const OptStats &st = res.opt;
    EXPECT_GT(st.instrsBefore, st.instrsAfter);
    EXPECT_EQ(st.totalRemoved(),
              static_cast<i64>(st.instrsBefore) -
                  static_cast<i64>(st.instrsAfter));
    // All five front-end passes and all four backend stages reported.
    EXPECT_EQ(st.passes.size(), frontendPassNames().size() + 4);
    for (const std::string &n : frontendPassNames()) {
        ASSERT_NE(st.pass(n), nullptr) << n;
        EXPECT_TRUE(st.pass(n)->frontend);
        EXPECT_GT(st.pass(n)->invocations, 0) << n;
    }
    for (const std::string &n : kBackendStages) {
        ASSERT_NE(st.pass(n), nullptr) << n;
        EXPECT_FALSE(st.pass(n)->frontend);
        EXPECT_EQ(st.pass(n)->invocations, 1) << n;
        EXPECT_EQ(st.pass(n)->instrsRemoved, 0) << n;
    }
    // The bulk of IROpt's win comes from zero/one propagation + DCE
    // (sparse-multiplication recovery, Table 7).
    EXPECT_GT(st.passReductionPct("zerooneprop") +
                  st.passReductionPct("dce") +
                  st.passReductionPct("gvn") +
                  st.passReductionPct("constfold"),
              2.0);
}

TEST(PassPipeline, AblationSubsetsValidateAgainstNative)
{
    Framework fw("BN254N");
    const std::vector<std::vector<std::string>> subsets = {
        {"dce"},
        {"constfold", "dce"},
        {"zerooneprop", "strengthreduce", "dce"},
        {"gvn", "dce"},
    };
    size_t fullOpt;
    {
        CompileOptions opt;
        const CompileResult res = fw.compile(opt);
        fullOpt = res.instrs();
    }
    for (const auto &names : subsets) {
        CompileOptions opt;
        opt.passes = names;
        const CompileResult res = fw.compile(opt);
        // Ablated pipelines optimize less (or equally) aggressively...
        EXPECT_GE(res.instrs(), fullOpt);
        // ...but must still compute the pairing.
        const ValidationReport rep = fw.validate(res, 1);
        EXPECT_TRUE(rep.allPassed()) << "subset size " << names.size();
    }
}

// ------------------------------------------------------------ trace cache

TEST(TraceCache, HitMissSemantics)
{
    clearTraceCache();
    Framework fw("BN254N");
    CompileOptions opt;

    const CompileResult first = fw.compile(opt);
    TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 1u);

    // Same options: hit.
    const CompileResult second = fw.compile(opt);
    s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);

    // Different hardware model: front end reused, backend re-run.
    CompileOptions widened = opt;
    widened.hw.issueWidth = 2;
    widened.hw.numBanks = 2;
    widened.hw.numLinUnits = 2;
    widened.hw.writebackFifo = true;
    const CompileResult wide = fw.compile(widened);
    s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
    EXPECT_LT(wide.prog.schedule.estimatedCycles,
              first.prog.schedule.estimatedCycles);

    // Different trace part / variants / pipeline: new keys.
    CompileOptions miller = opt;
    miller.part = TracePart::MillerOnly;
    fw.compile(miller);
    CompileOptions schoolbook = opt;
    schoolbook.variants.levels[2].mul = MulVariant::Schoolbook;
    fw.compile(schoolbook);
    CompileOptions ablated = opt;
    ablated.passes = {"gvn", "dce"};
    fw.compile(ablated);
    s = traceCacheStats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.entries, 4u);

    // Cache off: counters untouched, result identical.
    CompileOptions uncached = opt;
    uncached.useTraceCache = false;
    const CompileResult fresh = fw.compile(uncached);
    s = traceCacheStats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(fresh.instrs(), first.instrs());
    EXPECT_EQ(fresh.binary.words, first.binary.words);

    // Cached recompiles agree with each other bit-for-bit.
    EXPECT_EQ(first.instrs(), second.instrs());
    EXPECT_EQ(first.binary.words, second.binary.words);
    EXPECT_EQ(first.opt.reductionPct(), second.opt.reductionPct());
}

TEST(TraceCache, FullCatalogDseSweepTracesOncePerKey)
{
    clearTraceCache();
    // The Fig. 10-style sweep: every catalog curve against several
    // pipeline models. The front end must run exactly once per
    // (curve, variants, part) key regardless of how many hardware
    // points are evaluated.
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

    size_t curves = 0;
    for (const CurveDef &def : curveCatalog()) {
        ++curves;
        Explorer ex(def.name);
        for (const PipelineModel &hw : models) {
            CompileOptions opt;
            opt.hw = hw;
            const DsePoint p = ex.evaluate(opt, 1, def.name);
            EXPECT_GT(p.cycles, 0);
            EXPECT_GT(p.instrs, 0u);
        }
    }

    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, curves); // exactly one front-end trace per key
    EXPECT_EQ(s.hits, curves * (models.size() - 1));
    EXPECT_EQ(s.entries, curves);
}

TEST(TraceCache, StatsSurviveCacheHits)
{
    clearTraceCache();
    Framework fw("BLS12-381");
    CompileOptions opt;
    const CompileResult miss = fw.compile(opt);
    const CompileResult hit = fw.compile(opt);
    // Front-end attribution is preserved on the cached path.
    EXPECT_EQ(miss.opt.instrsBefore, hit.opt.instrsBefore);
    EXPECT_EQ(miss.opt.instrsAfter, hit.opt.instrsAfter);
    for (const std::string &n : frontendPassNames()) {
        ASSERT_NE(hit.opt.pass(n), nullptr);
        EXPECT_EQ(hit.opt.pass(n)->instrsRemoved,
                  miss.opt.pass(n)->instrsRemoved);
    }
}

} // namespace
} // namespace finesse
