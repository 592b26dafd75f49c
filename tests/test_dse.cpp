/**
 * @file
 * DSE tests: variant-space enumeration, two-stage (trace + backend)
 * evaluation consistency, objective scoring, and the co-design
 * crossover that motivates the whole framework (Sec. 2.2).
 */
#include <gtest/gtest.h>

#include "dse/explorer.h"
#include "dse/search.h"
#include "golden.h"

namespace finesse {
namespace {

TEST(Dse, VariantSpaceSizes)
{
    Explorer ex("BN254N");
    // k = 12 tower: 3 levels x 2 mul choices (mul-only).
    EXPECT_EQ(ex.variantSpace(true).size(), 8u);
    // Full space: (2 mul x 2 sqr) x (2 x 3 cubic) x (2 x 2) = 96.
    EXPECT_EQ(ex.variantSpace(false).size(), 96u);
    EXPECT_EQ(ex.towerDegrees(), (std::vector<int>{2, 6, 12}));
}

TEST(Dse, PresetsAreDistinct)
{
    Explorer ex("BN254N");
    const auto karat = ex.allKaratsuba();
    const auto school = ex.allSchoolbook();
    const auto manual = ex.manualHeuristic();
    EXPECT_NE(karat.level(2).mul, school.level(2).mul);
    // Manual: schoolbook at the bottom, karatsuba on top.
    EXPECT_EQ(manual.level(2).mul, MulVariant::Schoolbook);
    EXPECT_EQ(manual.level(12).mul, MulVariant::Karatsuba);
}

TEST(Dse, TwoStageEvaluationMatchesMonolithic)
{
    Explorer ex("BN254N");
    CompileOptions opt;
    const DsePoint direct = ex.evaluate(opt, 1, "direct");
    const Module m = ex.framework().handle().trace(
        opt.variants, TracePart::Full, true);
    const DsePoint staged = ex.evaluateModule(m, opt.hw, 1, "staged");
    EXPECT_EQ(direct.cycles, staged.cycles);
    EXPECT_EQ(direct.instrs, staged.instrs);
    EXPECT_DOUBLE_EQ(direct.areaMm2, staged.areaMm2);
}

TEST(Dse, ObjectiveScoring)
{
    DsePoint a;
    a.cycles = 100;
    a.throughputOps = 10;
    a.thptPerArea = 5;
    a.areaMm2 = 2;
    DsePoint b;
    b.cycles = 50;
    b.throughputOps = 5;
    b.thptPerArea = 10;
    b.areaMm2 = 1;
    EXPECT_GT(Explorer::score(b, Objective::MinCycles),
              Explorer::score(a, Objective::MinCycles));
    EXPECT_GT(Explorer::score(a, Objective::MaxThroughput),
              Explorer::score(b, Objective::MaxThroughput));
    EXPECT_GT(Explorer::score(b, Objective::MaxThptPerArea),
              Explorer::score(a, Objective::MaxThptPerArea));
    EXPECT_GT(Explorer::score(b, Objective::MinArea),
              Explorer::score(a, Objective::MinArea));
}

TEST(Dse, KaratsubaCrossoverBetweenArchitectures)
{
    // The Sec. 2.2 motivating experiment, on BN254N for speed:
    // schoolbook-at-Fp2 helps single-issue; all-Karatsuba helps when
    // linear ops are cheap/parallel.
    Explorer ex("BN254N");
    const Module mKarat = ex.framework().handle().trace(
        ex.allKaratsuba(), TracePart::Full, true);
    VariantConfig noKaratLow = ex.allKaratsuba();
    noKaratLow.levels[2].mul = MulVariant::Schoolbook;
    const Module mMixed = ex.framework().handle().trace(
        noKaratLow, TracePart::Full, true);

    PipelineModel single; // L=38/S=8 single issue
    PipelineModel wide;
    wide.longLat = 8;
    wide.shortLat = 2;
    wide.issueWidth = 5;
    wide.numLinUnits = 4;
    wide.numBanks = 5;
    wide.writebackFifo = true;

    const i64 karatSingle =
        ex.evaluateModule(mKarat, single, 1, "ks").cycles;
    const i64 mixedSingle =
        ex.evaluateModule(mMixed, single, 1, "ms").cycles;
    const i64 karatWide =
        ex.evaluateModule(mKarat, wide, 1, "kw").cycles;
    const i64 mixedWide =
        ex.evaluateModule(mMixed, wide, 1, "mw").cycles;

    // Mixed wins on single issue; Karatsuba catches up (or wins) with
    // parallel linear units.
    EXPECT_LT(mixedSingle, karatSingle);
    EXPECT_LT(static_cast<double>(karatWide) / mixedWide,
              static_cast<double>(karatSingle) / mixedSingle);
}

TEST(Dse, Fig10ModelsValid)
{
    for (const PipelineModel &m : fig10HardwareModels())
        m.validate();
    EXPECT_EQ(fig10HardwareModels().size(), 5u);

    // Golden: BN254N cycles on every Fig. 10 model, plus the
    // program-order ("Init") schedule on the paper model.
    Explorer ex("BN254N");
    std::vector<DseRequest> reqs;
    for (const PipelineModel &m : fig10HardwareModels()) {
        reqs.emplace_back();
        reqs.back().opt.hw = m;
    }
    reqs.emplace_back();
    reqs.back().opt.listSchedule = false;
    const std::vector<DsePoint> pts = ex.evaluateAll(reqs, 1);
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
        expectGolden("fig10.BN254N.m" + std::to_string(i),
                     goldenFormat("hw=%s cycles=%lld",
                                  pts[i].hw.describe().c_str(),
                                  static_cast<long long>(pts[i].cycles)));
    }
    expectGolden("fig10.BN254N.init",
                 goldenFormat("cycles=%lld", static_cast<long long>(
                                                 pts.back().cycles)));
}

TEST(Dse, Fig10GridFrontierGolden)
{
    // The Pareto frontier of the full Fig. 10 grid (the 55 points
    // bench_fig10_dse and bench_fig_search sweep) on BN254N.
    Explorer ex("BN254N");
    const std::vector<DseRequest> grid = fig10Grid(ex);
    ASSERT_EQ(grid.size(), 55u);
    const std::vector<DsePoint> frontier =
        paretoFrontier(ex.evaluateAll(grid, 1));
    expectGolden("fig10.BN254N.frontier",
                 goldenFormat("points=%zu fingerprint=%016llx",
                              frontier.size(),
                              static_cast<unsigned long long>(
                                  frontierFingerprint(frontier))));
}

} // namespace
} // namespace finesse
