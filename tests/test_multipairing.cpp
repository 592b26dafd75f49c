/**
 * @file
 * Compiled multi-pairing: trace a product of two pairings with a
 * shared final exponentiation (the SNARK-verifier workload), compile
 * it through the full backend and cross-validate against the native
 * engine. Demonstrates that the tracing CodeGen generalizes beyond the
 * single-pairing entry point.
 */
#include <gtest/gtest.h>

#include "compiler/codegen.h"
#include "core/framework.h"
#include "golden.h"
#include "pairing/cache.h"
#include "sim/functional.h"

namespace finesse {
namespace {

using SymEngine = PairingEngine<Tower12<SymFp>>;
using NatEngine = PairingEngine<NativeTower12>;

Module
traceTwoPairingProduct(const CurveSystem12 &sys)
{
    TraceBuilder tb(sys.info().p);
    SymFp::Ctx sctx{&tb};
    Tower12<SymFp> tower;
    buildTower(tower, &sctx, sys.towerParams(), VariantConfig{});
    SymEngine engine(tower, sys.plan(), CoordSystem::Jacobian, false);

    auto supply = [&] { return SymFp{tb.input(), &sctx}; };
    using FtS = Tower12<SymFp>::FtT;
    std::vector<SymEngine::PairInput> inputs;
    for (int i = 0; i < 2; ++i) {
        const SymFp xP = supply();
        const SymFp yP = supply();
        const FtS xQ = buildFromLeaves<FtS>(tower.ftCtx(), supply);
        const FtS yQ = buildFromLeaves<FtS>(tower.ftCtx(), supply);
        inputs.push_back({xP, yP, xQ, yQ});
    }
    const auto result = engine.pairProduct(inputs);
    forEachLeaf(result, [&](const SymFp &leaf) { tb.output(leaf.id()); });
    Module m = tb.finish();
    m.verify();
    return m;
}

/**
 * Trace, optimise and compile the two-pairing product of @p curve, pin
 * its instruction counts, and check the compiled program against the
 * native engine.
 */
void
checkTwoPairingProduct(const std::string &curve)
{
    SCOPED_TRACE(curve);
    const auto &sys = curveSystem12(curve);
    Module m = traceTwoPairingProduct(sys);
    EXPECT_EQ(m.inputs.size(), 12u); // 2 x (2 + 4) coordinates
    EXPECT_EQ(m.outputs.size(), 12u);

    const OptStats stats = optimizeModule(m);
    EXPECT_LT(stats.instrsAfter, stats.instrsBefore);
    expectGolden("multipairing." + curve + ".k2",
                 goldenFormat("instrs_before=%zu instrs_after=%zu",
                              stats.instrsBefore, stats.instrsAfter));

    const CompileResult res = runBackend(m, PipelineModel{}, true);

    // Native reference.
    Rng rng(404);
    const auto P1 = sys.randomG1(rng);
    const auto Q1 = sys.randomG2(rng);
    const auto P2 = sys.randomG1(rng);
    const auto Q2 = sys.randomG2(rng);
    std::vector<BigInt> inputs;
    P1.x.toFpCoeffs(inputs);
    P1.y.toFpCoeffs(inputs);
    Q1.x.toFpCoeffs(inputs);
    Q1.y.toFpCoeffs(inputs);
    P2.x.toFpCoeffs(inputs);
    P2.y.toFpCoeffs(inputs);
    Q2.x.toFpCoeffs(inputs);
    Q2.y.toFpCoeffs(inputs);

    std::vector<NatEngine::PairInput> natInputs = {
        {P1.x, P1.y, Q1.x, Q1.y}, {P2.x, P2.y, Q2.x, Q2.y}};
    std::vector<BigInt> want;
    sys.engine().pairProduct(natInputs).toFpCoeffs(want);

    FpCtx fp(sys.info().p);
    EXPECT_EQ(runModule(res.prog.module, fp, inputs), want);
    EXPECT_EQ(runAllocated(res.prog, fp, inputs), want);
}

/** BN254N has a D twist and BLS12-381 an M twist: both line layouts. */
TEST(MultiPairingCompile, TwoPairingProductValidates)
{
    checkTwoPairingProduct("BN254N");
    checkTwoPairingProduct("BLS12-381");
}

TEST(MultiPairingCompile, SharedFinalExpIsCheaperThanTwoPairings)
{
    const auto &sys = curveSystem12("BN254N");
    Module product = traceTwoPairingProduct(sys);
    optimizeModule(product);

    Framework fw("BN254N");
    const CompileResult single = fw.compile(CompileOptions{});
    // One shared final exponentiation: well below 2x a full pairing.
    EXPECT_LT(product.size(), 2 * single.instrs() * 85 / 100);
}

} // namespace
} // namespace finesse
