/**
 * @file
 * Figure 11 reproduction: co-design over the ALU family (mmul pipeline
 * depth = Long instruction cycles). Deeper pipelines shorten the
 * critical path until it floors, while IPC decreases (the O-Ate
 * dependence chains tolerate less latency); throughput peaks at an
 * intermediate depth (38 in the paper's setup).
 */
#include "bench_common.h"
#include "dse/explorer.h"

using namespace finesse;

int
main()
{
    banner("Figure 11: co-design over mmul pipeline depth (BN254N)");
    Explorer ex("BN254N");
    const int bits = ex.framework().info().logP();
    TimingModel timing;

    // Trace once; only the backend depends on the latency model.
    const Module m = ex.framework().handle().trace(
        VariantConfig{}, TracePart::Full, true);

    TextTable t;
    t.header({"Long(cy)", "IPC", "CritPath(ns)", "Freq(MHz)",
              "Cycles(k)", "Throughput(kops)"});
    double bestThpt = 0;
    int bestDepth = 0;
    for (int depth : {14, 17, 20, 23, 26, 29, 32, 35, 38, 41}) {
        PipelineModel hw;
        hw.longLat = depth;
        const DsePoint p = ex.evaluateModule(m, hw, 1, "depth");
        const double thptK = p.throughputOps / 1e3;
        if (p.throughputOps > bestThpt) {
            bestThpt = p.throughputOps;
            bestDepth = depth;
        }
        t.row({std::to_string(depth), fmt(p.ipc),
               fmt(timing.criticalPathNs(bits, depth)),
               fmt(timing.frequencyMHz(bits, depth), 0),
               fmt(double(p.cycles) / 1e3, 1), fmt(thptK, 2)});
    }
    t.print();
    std::printf("\nOptimal depth: %d cycles (paper: 38 on its "
                "technology/EDA setup). IPC falls with depth; critical "
                "path floors past the knee.\n",
                bestDepth);
    return 0;
}
