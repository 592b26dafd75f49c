/**
 * @file
 * OptContext worklist-engine tests.
 *
 *  - Byte-identity: the single-build worklist engine must produce
 *    modules identical to the legacy sweep engine (same insts, inputs,
 *    outputs, constants) and matching per-pass stats, for the default
 *    pipeline across the full curve catalog and for many `--passes`
 *    subsets (ablation semantics are part of the contract).
 *  - Oracle: optimized modules are functionally equivalent to the
 *    unoptimized trace (and to the native pairing library) on random
 *    inputs, for the full catalog and several pipeline subsets.
 *  - Attribution: per-pass instruction deltas sum to the aggregate
 *    reduction, every pass is invoked once per round, and the
 *    pipeline is idempotent (a second run changes nothing).
 */
#include <gtest/gtest.h>

#include "core/framework.h"
#include "curve/catalog.h"
#include "sim/functional.h"

namespace finesse {
namespace {

Module
rawTrace(const std::string &curve)
{
    return curveHandle(curve).trace(VariantConfig{}, TracePart::Full, false);
}

/** Subsets exercising every pass alone and several mixed orders. */
std::vector<std::vector<std::string>>
ablationSubsets()
{
    std::vector<std::vector<std::string>> subsets;
    for (const std::string &n : frontendPassNames())
        subsets.push_back({n});
    subsets.push_back({"gvn", "dce"});
    subsets.push_back({"dce", "gvn"}); // dce first: non-canonical order
    subsets.push_back({"zerooneprop", "strengthreduce", "dce"});
    subsets.push_back({"constfold", "zerooneprop", "gvn"});
    subsets.push_back(frontendPassNames());
    return subsets;
}

void
expectStatsMatch(const OptStats &sweep, const OptStats &worklist)
{
    EXPECT_EQ(sweep.instrsBefore, worklist.instrsBefore);
    EXPECT_EQ(sweep.instrsAfter, worklist.instrsAfter);
    EXPECT_EQ(sweep.iterations, worklist.iterations);
    ASSERT_EQ(sweep.passes.size(), worklist.passes.size());
    for (size_t i = 0; i < sweep.passes.size(); ++i) {
        const PassStats &a = sweep.passes[i];
        const PassStats &b = worklist.passes[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.frontend, b.frontend);
        EXPECT_EQ(a.invocations, b.invocations) << a.name;
        EXPECT_EQ(a.instrsRemoved, b.instrsRemoved) << a.name;
    }
}

void
expectEnginesAgree(const Module &raw,
                   const std::vector<std::string> &passes)
{
    Module viaSweep = raw;
    Module viaWorklist = raw;
    const OptStats sweep = runFrontendPipelineSweep(viaSweep, passes);
    const OptStats worklist =
        runFrontendPipeline(viaWorklist, passes);
    EXPECT_TRUE(viaSweep == viaWorklist)
        << "modules diverge for pipeline of " << passes.size()
        << " passes";
    expectStatsMatch(sweep, worklist);
}

// ------------------------------------------------- small-module engine

/**
 * Exercises every engine mechanism on a hand-built module: constant
 * folding + interning, identity elision, op rewriting, value
 * numbering across elided operands, dead code and dead constants.
 */
Module
engineModule()
{
    Module m;
    m.p = BigInt::fromString("1000003");
    auto id = [&] { return m.numValues++; };
    const i32 c0 = id(), c2 = id(), c9 = id();
    m.constants = {{c0, BigInt()}, {c2, BigInt(u64{2})},
                   {c9, BigInt(u64{9})}}; // c9 never used: dce food
    const i32 aRaw = id(), bRaw = id();
    m.inputs = {aRaw, bRaw};
    const i32 a = id();
    m.body.push_back({Op::Icv, a, aRaw, -1});
    const i32 b = id();
    m.body.push_back({Op::Icv, b, bRaw, -1});
    const i32 fold = id(); // 2+2: folds, interns 4
    m.body.push_back({Op::Add, fold, c2, c2});
    const i32 addz = id(); // a+0 -> a
    m.body.push_back({Op::Add, addz, a, c0});
    const i32 mul1 = id(); // b * (a+0) -> b * a
    m.body.push_back({Op::Mul, mul1, b, addz});
    const i32 mul2 = id(); // a * b: gvn-dup of mul1 after elision
    m.body.push_back({Op::Mul, mul2, a, b});
    const i32 dbl = id(); // mul1 * 2 -> dbl (strength reduction)
    m.body.push_back({Op::Mul, dbl, mul1, c2});
    const i32 dead = id(); // never used
    m.body.push_back({Op::Sub, dead, mul2, fold});
    const i32 sum = id();
    m.body.push_back({Op::Add, sum, dbl, mul2});
    const i32 out = id();
    m.body.push_back({Op::Cvt, out, sum, -1});
    m.outputs = {out};
    m.verify();
    return m;
}

TEST(OptContext, SmallModuleEnginesAgreeOnEverySubset)
{
    const Module raw = engineModule();
    for (const auto &subset : ablationSubsets())
        expectEnginesAgree(raw, subset);
}

TEST(OptContext, SmallModuleOptimizesAsExpected)
{
    Module m = engineModule();
    const auto want =
        runModule(m, FpCtx(m.p), {BigInt(u64{5}), BigInt(u64{7})});
    const OptStats stats =
        runFrontendPipeline(m, frontendPassNames());
    // 2 Icv + Mul(a,b) + Dbl + Add + Cvt survive.
    EXPECT_EQ(m.size(), 6u);
    EXPECT_EQ(m.countOp(Op::Mul), 1u); // gvn merged the commuted pair
    EXPECT_EQ(m.countOp(Op::Dbl), 1u); // strength-reduced mul-by-2
    // Folded 4, unused 9, zero and two all end up unreferenced.
    EXPECT_EQ(m.constants.size(), 0u);
    EXPECT_EQ(stats.totalRemoved(),
              static_cast<i64>(stats.instrsBefore) -
                  static_cast<i64>(stats.instrsAfter));
    const auto got =
        runModule(m, FpCtx(m.p), {BigInt(u64{5}), BigInt(u64{7})});
    EXPECT_EQ(got, want);
}

// --------------------------------------------- catalog-wide identity

TEST(OptContext, DefaultPipelineIdenticalAcrossCatalog)
{
    for (const CurveDef &def : curveCatalog()) {
        SCOPED_TRACE(def.name);
        expectEnginesAgree(rawTrace(def.name), frontendPassNames());
    }
}

TEST(OptContext, AblationSubsetsIdenticalOnRepresentativeCurves)
{
    for (const char *curve : {"BN254N", "BLS12-381", "BLS24-509"}) {
        SCOPED_TRACE(curve);
        const Module raw = rawTrace(curve);
        for (const auto &subset : ablationSubsets())
            expectEnginesAgree(raw, subset);
    }
}

// ----------------------------------------------------- oracle (sim)

TEST(OptContext, OptimizedModulesMatchUnoptimizedAcrossCatalog)
{
    const std::vector<std::vector<std::string>> subsets = {
        frontendPassNames(),
        {"dce"},
        {"gvn", "dce"},
        {"zerooneprop"},
    };
    for (const CurveDef &def : curveCatalog()) {
        SCOPED_TRACE(def.name);
        const Module raw = rawTrace(def.name);
        const FpCtx fp(raw.p);
        Rng rng(7);
        const auto inputs =
            curveHandle(def.name).sampleInputs(rng, TracePart::Full);
        const auto want = runModule(raw, fp, inputs);
        for (const auto &subset : subsets) {
            Module opt = raw;
            runFrontendPipeline(opt, subset);
            EXPECT_EQ(runModule(opt, fp, inputs), want)
                << "subset size " << subset.size();
        }
    }
}

TEST(OptContext, OptimizedModuleMatchesNativeReference)
{
    for (const char *curve : {"BN254N", "BLS12-381"}) {
        SCOPED_TRACE(curve);
        Framework fw(curve);
        Module m = rawTrace(curve);
        runFrontendPipeline(m, frontendPassNames());
        EXPECT_EQ(fw.validateModule(m, 2), 2);
    }
}

// ------------------------------------------------------- attribution

TEST(OptContext, PerPassDeltasSumAndInvocationsMatchRounds)
{
    for (const char *curve : {"BN254N", "BLS24-509"}) {
        SCOPED_TRACE(curve);
        Module m = rawTrace(curve);
        const OptStats stats =
            runFrontendPipeline(m, frontendPassNames());
        EXPECT_GT(stats.instrsBefore, stats.instrsAfter);
        EXPECT_EQ(stats.totalRemoved(),
                  static_cast<i64>(stats.instrsBefore) -
                      static_cast<i64>(stats.instrsAfter));
        EXPECT_GE(stats.iterations, 2); // at least one clean round
        ASSERT_EQ(stats.passes.size(), frontendPassNames().size());
        for (const PassStats &ps : stats.passes) {
            EXPECT_TRUE(ps.frontend) << ps.name;
            EXPECT_EQ(ps.invocations, stats.iterations) << ps.name;
        }
    }
}

TEST(OptContext, PipelineIsIdempotent)
{
    for (const char *curve : {"BN254N", "BLS12-381"}) {
        SCOPED_TRACE(curve);
        Module m = rawTrace(curve);
        const OptStats first =
            runFrontendPipeline(m, frontendPassNames());
        // The fixpoint converged (was not cut off by the round cap).
        EXPECT_LT(first.iterations, PassManager::kMaxFixpointIters);
        const Module converged = m;
        const OptStats second =
            runFrontendPipeline(m, frontendPassNames());
        EXPECT_EQ(second.instrsBefore, second.instrsAfter);
        EXPECT_EQ(second.totalRemoved(), 0);
        EXPECT_EQ(second.iterations, 1); // one clean round
        EXPECT_TRUE(m == converged);
    }
}

} // namespace
} // namespace finesse
