/**
 * @file
 * Co-design walkthrough: the paper's agile loop from the perspective of
 * a hardware designer bringing up an accelerator for a *new* security
 * target (BLS12-446, 130-bit). The loop:
 *   1. compile with default variants on a default pipeline model,
 *   2. use simulator feedback to explore operator variants,
 *   3. sweep the ALU family (mmul depth) with the timing model,
 *   4. pick core count for a throughput target under an area budget.
 * Every step is minutes, not a re-engineering cycle: the paper's
 * agility claim.
 */
#include <cstdio>

#include "dse/explorer.h"

using namespace finesse;

int
main()
{
    Explorer ex("BLS12-446");
    const CurveInfo &info = ex.framework().info();
    std::printf("target: %s (%d-bit p, security %d bits)\n\n",
                info.def.name.c_str(), info.logP(),
                info.def.securityBits);

    // Step 1: baseline point.
    CompileOptions base;
    const DsePoint p0 = ex.evaluate(base, 1, "baseline");
    std::printf("step 1  baseline: %zu instrs, %lld cycles, IPC %.2f, "
                "%.2f mm^2, %.1f us\n",
                p0.instrs, static_cast<long long>(p0.cycles), p0.ipc,
                p0.areaMm2, p0.latencyUs);

    // Step 2: operator-variant exploration (software axis).
    const DsePoint pv =
        ex.exploreVariants(base.hw, Objective::MinCycles, true);
    std::printf("step 2  variant search: best %lld cycles (%.1f%% "
                "faster)\n",
                static_cast<long long>(pv.cycles),
                100.0 * (1.0 - double(pv.cycles) / double(p0.cycles)));

    // Step 3: ALU-family sweep (hardware axis) on the best variants.
    const Module m = ex.framework().handle().trace(
        pv.variants, TracePart::Full, true);
    double bestThpt = 0;
    int bestDepth = 0;
    for (int depth = 14; depth <= 44; depth += 3) {
        PipelineModel hw;
        hw.longLat = depth;
        const DsePoint p = ex.evaluateModule(m, hw, 1, "sweep");
        if (p.throughputOps > bestThpt) {
            bestThpt = p.throughputOps;
            bestDepth = depth;
        }
    }
    std::printf("step 3  ALU family sweep: best depth %d -> %.2f kops "
                "per core\n",
                bestDepth, bestThpt / 1e3);

    // Step 4: core-count selection under an area budget.
    PipelineModel hw;
    hw.longLat = bestDepth;
    const double areaBudget = 12.0; // mm^2
    int cores = 1;
    DsePoint chosen;
    for (int c = 1; c <= 32; c *= 2) {
        const DsePoint p = ex.evaluateModule(m, hw, c, "cores");
        if (p.areaMm2 > areaBudget)
            break;
        chosen = p;
        cores = c;
    }
    std::printf("step 4  core scaling: %d cores, %.2f mm^2, %.1f kops, "
                "%.2f kops/mm^2\n",
                cores, chosen.areaMm2, chosen.throughputOps / 1e3,
                chosen.thptPerArea / 1e3);

    std::printf("\nfinal configuration: %s | depth %d | %d cores | "
                "validated against the native library\n",
                info.def.name.c_str(), bestDepth, cores);

    // Final sanity: the chosen design still computes correct pairings.
    CompileOptions finalOpt;
    finalOpt.variants = pv.variants;
    finalOpt.hw = hw;
    const CompileResult res = ex.framework().compile(finalOpt);
    const ValidationReport rep = ex.framework().validate(res, 1);
    std::printf("functional validation: %s\n",
                rep.allPassed() ? "PASS" : "FAIL");
    return rep.allPassed() ? 0 : 1;
}
