/**
 * @file
 * Hardware model tests: area-model monotonicity and calibration
 * anchors, timing-model knee placement, technology scaling, and the
 * FPGA mapping.
 */
#include <gtest/gtest.h>

#include <climits>

#include "core/framework.h"
#include "golden.h"
#include "hwmodel/area.h"

namespace finesse {
namespace {

TEST(AreaModel, MmulMonotoneInWidth)
{
    AreaModel am;
    double prev = 0;
    for (int bits : {128, 254, 381, 462, 509, 638}) {
        const double a = am.mmulArea(bits, 38);
        EXPECT_GT(a, prev) << bits;
        prev = a;
    }
}

TEST(AreaModel, MmulSubQuadraticViaKaratsuba)
{
    // Doubling the width should cost clearly less than 4x (the
    // Karatsuba-Wallace recursion is ~3x per doubling).
    AreaModel am;
    const double a254 = am.mmulArea(254, 38);
    const double a508 = am.mmulArea(508, 38);
    EXPECT_LT(a508, 3.9 * a254);
    EXPECT_GT(a508, 1.8 * a254);
}

TEST(AreaModel, CalibrationAnchorsBN254)
{
    // Fig. 6 anchors: mmul dominates the ALU; the single-core total
    // sits in the paper's neighborhood for the measured program sizes.
    AreaModel am;
    const double mmul = am.mmulArea(254, 38);
    EXPECT_GT(mmul, 0.35);
    EXPECT_LT(mmul, 0.75); // paper: ~0.55 mm^2 (89% of a 0.62 ALU)
    const double other = am.aluOtherArea(254, 1);
    EXPECT_GT(mmul / (mmul + other), 0.80);
}

TEST(AreaModel, SharedImemAmortization)
{
    AreaModel am;
    DesignPoint dp;
    dp.fpBits = 254;
    dp.imemBits = 84000 * 32;
    dp.dmemWords = 440;
    dp.cores = 1;
    const AreaReport one = am.report(dp);
    dp.cores = 8;
    const AreaReport eight = am.report(dp);
    // IMem percentage must fall sharply with cores (Fig. 6).
    EXPECT_GT(one.pctImem(), 40.0);
    EXPECT_LT(eight.pctImem(), 20.0);
    // 8 cores cost much less than 8x the single-core area.
    EXPECT_LT(eight.totalArea, 5.0 * one.totalArea);
    EXPECT_EQ(one.imemArea, eight.imemArea);
}

TEST(TimingModel, KneeNearDepth38For254Bit)
{
    TimingModel tm;
    // Critical path decreases with depth then floors.
    double prev = 1e9;
    int knee = 0;
    for (int d = 8; d <= 50; ++d) {
        const double cp = tm.criticalPathNs(254, d);
        EXPECT_LE(cp, prev + 1e-9);
        if (knee == 0 && cp <= tm.kFloorNs + tm.kMarginNs + 1e-9)
            knee = d;
        prev = cp;
    }
    EXPECT_GE(knee, 30);
    EXPECT_LE(knee, 42); // paper finds the optimum at 38
    // Frequency at the knee is in the paper's range (769-833 MHz).
    EXPECT_NEAR(tm.frequencyMHz(254, 38), 800.0, 60.0);
}

TEST(TimingModel, WiderMultipliersAreSlower)
{
    TimingModel tm;
    EXPECT_GT(tm.criticalPathNs(638, 20), tm.criticalPathNs(254, 20));
}

TEST(TechScale, RoundTripAndTable6Anchors)
{
    const double f40 = 800.0;
    const double f65 =
        TechScale::scaleFreq(f40, TechNode::N40LP, TechNode::N65);
    EXPECT_NEAR(f65, 440.0, 1.0); // paper: 769 -> 423 (x0.55)
    EXPECT_NEAR(TechScale::scaleFreq(f65, TechNode::N65,
                                     TechNode::N40LP),
                f40, 1e-9);
    const double a40 = 8.0;
    EXPECT_NEAR(TechScale::scaleArea(a40, TechNode::N40LP,
                                     TechNode::N65),
                12.0, 1e-9); // paper: 8.00 -> 12.0
}

TEST(FpgaModel, SliceCalibration)
{
    // The BN254N 1-core design should land in the low five digits of
    // slices (paper: 13,928) and ~150-170 MHz.
    AreaModel am;
    DesignPoint dp;
    dp.fpBits = 254;
    dp.imemBits = 84000 * 32;
    dp.dmemWords = 440;
    dp.cores = 1;
    const AreaReport r = am.report(dp);
    const double slices = FpgaModel::slices(r);
    EXPECT_GT(slices, 8000);
    EXPECT_LT(slices, 22000);
    EXPECT_NEAR(FpgaModel::frequencyMHz(254, 38), 160.0, 30.0);
}

TEST(Table6, HeadlineRatiosGolden)
{
    // The default BN254N compile, as bench_table6_comparison reports it.
    Framework fw("BN254N");
    const CompileResult res = fw.compile(CompileOptions{});
    const double cycles =
        static_cast<double>(simulateCycles(res.prog).totalCycles);
    const Table6Ratios r = table6Ratios(fw.info().logP(), 38, cycles,
                                        fw.area(res, 1), fw.area(res, 8));
    expectGolden("table6.BN254N",
                 goldenFormat("flexipair_thpt=%.17g "
                              "flexipair_ops_per_slice=%.17g "
                              "ikeda_thpt=%.17g ikeda_kops_per_mm2=%.17g",
                              r.flexiPairThpt, r.flexiPairOpsPerSlice,
                              r.ikedaThpt, r.ikedaKopsPerMm2));
}

TEST(PipelineModelChecks, LatencyTable)
{
    PipelineModel hw;
    EXPECT_EQ(hw.latency(Op::Mul), hw.longLat);
    EXPECT_EQ(hw.latency(Op::Sqr), hw.longLat);
    EXPECT_EQ(hw.latency(Op::Add), hw.shortLat);
    EXPECT_EQ(hw.latency(Op::Icv), hw.shortLat);
    EXPECT_EQ(hw.latency(Op::Inv), hw.invLat);
}

TEST(PipelineModelChecks, RejectsOutOfRangeFields)
{
    PipelineModel().validate(); // the paper default is valid
    PipelineModel noFifo;       // the depth is unused without a FIFO
    noFifo.fifoDepth = 0;
    noFifo.validate();
    PipelineModel largest; // every upper bound reached exactly
    largest.shortLat = 4095;
    largest.longLat = largest.invLat = largest.fifoDepth = 4096;
    largest.issueWidth = largest.numLinUnits = largest.numBanks = 64;
    largest.readsPerBank = largest.writesPerBank = 64;
    largest.writebackFifo = true;
    largest.validate();
    const std::pair<const char *, void (*)(PipelineModel &)> bad[] = {
        {"hw.issue_width", [](PipelineModel &m) { m.issueWidth = 0; }},
        {"hw.banks", [](PipelineModel &m) { m.numBanks = 0; }},
        {"hw.short_lat", [](PipelineModel &m) { m.shortLat = -3; }},
        {"hw.short_lat", [](PipelineModel &m) { m.shortLat = 0; }},
        {"hw.inv_lat", [](PipelineModel &m) { m.invLat = -5; }},
        {"hw.fifo_depth",
         [](PipelineModel &m) {
             m.writebackFifo = true;
             m.fifoDepth = 0;
         }},
        {"hw.lin_units", [](PipelineModel &m) { m.numLinUnits = 0; }},
        // Upper bounds: the port trackers allocate (max latency + FIFO
        // depth) x banks counters.
        {"hw.inv_lat", [](PipelineModel &m) { m.invLat = 100000000; }},
        {"hw.inv_lat", [](PipelineModel &m) { m.invLat = INT_MAX; }},
        {"hw.long_lat", [](PipelineModel &m) { m.longLat = INT_MAX; }},
        {"hw.short_lat",
         [](PipelineModel &m) {
             m.shortLat = 4097;
             m.longLat = 5000;
         }},
        {"hw.fifo_depth",
         [](PipelineModel &m) {
             m.writebackFifo = true;
             m.fifoDepth = 4097;
         }},
        {"hw.issue_width",
         [](PipelineModel &m) {
             m.issueWidth = 65;
             m.numBanks = 65;
             m.writebackFifo = true;
         }},
        {"hw.lin_units", [](PipelineModel &m) { m.numLinUnits = 65; }},
        {"hw.banks", [](PipelineModel &m) { m.numBanks = 2000000000; }},
        {"ports", [](PipelineModel &m) { m.readsPerBank = 65; }},
        {"ports", [](PipelineModel &m) { m.writesPerBank = 65; }},
    };
    for (const auto &[key, breakIt] : bad) {
        SCOPED_TRACE(key);
        PipelineModel m;
        breakIt(m);
        try {
            m.validate();
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace finesse
