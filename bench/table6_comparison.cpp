/**
 * @file
 * Table 6 reproduction: BN254/BN256 accelerator comparison against the
 * flexible FPGA framework (FlexiPair [17]) and the fixed-function ASIC
 * (Ikeda et al. [10]). Baseline rows are the published numbers
 * (recorded constants); our rows are produced by the full Finesse
 * flow: compile -> cycle simulation -> area/timing models -> FPGA
 * mapping / 65 nm technology scaling. The four headline ratios come
 * from table6Ratios() (hwmodel/area.h), which the table6.BN254N
 * golden pins.
 */
#include "bench_common.h"
#include "dse/explorer.h"

using namespace finesse;

int
main()
{
    banner("Table 6: comparison on BN254/BN256 (optimal Ate)");
    Framework fw("BN254N");
    const int bits = fw.info().logP();
    const CompileResult res = fw.compile(CompileOptions{});
    const CycleStats sim = simulateCycles(res.prog);
    const double cycles = static_cast<double>(sim.totalCycles);

    TimingModel timing;
    const double asicMHz = timing.frequencyMHz(bits, 38);
    const double fpgaMHz = FpgaModel::frequencyMHz(bits, 38);

    TextTable t;
    t.header({"Work", "Platform", "Freq(MHz)", "#Cycle", "Latency",
              "Util./Area", "Thpt(ops)", "Thpt/Area"});

    // Published baselines (recorded from Table 6 of the paper).
    t.row({"FlexiPair[17]", "FPGA Virtex-7", "188.5", "2552k", "14.14ms",
           "2506 Slices", "70.7", "0.028 ops/Slice"});

    {
        const AreaReport a1 = fw.area(res, 1);
        const double slices = FpgaModel::slices(a1);
        const double latMs = cycles / fpgaMHz / 1e3;
        const double ops = fpgaMHz * 1e6 / cycles;
        t.row({"Ours (1-core)", "FPGA Virtex-7", fmt(fpgaMHz, 1),
               fmtK(cycles), fmt(latMs, 3) + "ms",
               fmt(slices, 0) + " Slices", fmt(ops, 0),
               fmt(ops / slices, 3) + " ops/Slice"});
    }

    t.row({"Ikeda[10]", "ASIC 65nm FDSOI", "250", "14050", "56.2us",
           "12.8 mm^2", "17.8k", "1.39 kops/mm^2"});

    const AreaReport a1 = fw.area(res, 1);
    const AreaReport a8 = fw.area(res, 8);
    auto asicRow = [&](const char *name, const AreaReport &ar, int cores,
                       bool scaleTo65) {
        double mhz = asicMHz;
        double area = ar.totalArea;
        if (scaleTo65) {
            mhz = TechScale::scaleFreq(mhz, TechNode::N40LP,
                                       TechNode::N65);
            area = TechScale::scaleArea(area, TechNode::N40LP,
                                        TechNode::N65);
        }
        const double latUs = cycles / mhz;
        const double kops = cores * mhz * 1e3 / cycles;
        t.row({name, scaleTo65 ? "ASIC 65nm (equiv.)" : "ASIC 40nm LP",
               fmt(mhz, 0), fmtK(cycles), fmt(latUs, 1) + "us",
               fmt(area, 2) + " mm^2", fmt(kops, 1) + "k",
               fmt(kops / area, 2) + " kops/mm^2"});
    };
    asicRow("Ours (1-core)", a1, 1, false);
    asicRow("Ours (8-core)", a8, 8, false);
    asicRow("Ours (8-core)", a8, 8, true);
    t.print();

    // Headline ratios (paper: 34x / 6.2x vs FlexiPair; 3x / 3.2x vs
    // the fixed ASIC at 65nm-equivalent), pinned by test_hwmodel.
    const Table6Ratios r = table6Ratios(bits, 38, cycles, a1, a8);
    std::printf("\nHeadline ratios (ours vs baselines):\n");
    std::printf("  vs FlexiPair:  throughput %.1fx, ops/slice %.1fx\n",
                r.flexiPairThpt, r.flexiPairOpsPerSlice);
    std::printf("  vs Ikeda ASIC: throughput %.1fx, kops/mm^2 %.1fx "
                "(65nm equiv.)\n",
                r.ikedaThpt, r.ikedaKopsPerMm2);
    return 0;
}
