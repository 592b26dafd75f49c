/**
 * @file
 * Front-end optimizer benchmark: cold IROpt wall time per catalog
 * curve, legacy sweep-until-fixpoint engine vs the single-build
 * OptContext worklist engine (same pass pipeline, byte-identical
 * results enforced with Module equality).
 *
 * For the largest traced curve the comparison is repeated for every
 * single-pass ablation, since the contract is identical final modules
 * for ANY `--passes` subset, not just the default pipeline.
 *
 * Exits non-zero on any module mismatch, and, on the full catalog,
 * when the largest curve's speedup falls below kSpeedupFloor.
 */
#include <chrono>

#include "bench_common.h"
#include "compiler/pipeline.h"
#include "core/framework.h"

using namespace finesse;

namespace {

/**
 * 80 % of the BLS24-509 speedup (4.603x) measured on a 1-core
 * container. The margin is thin: that curve measures about 3.9x on a
 * 4-vCPU VM.
 */
constexpr double kSpeedupFloor = 0.8 * 4.60334;

struct EngineRun
{
    Module module;
    OptStats stats;
    double seconds = 0.0;
};

EngineRun
runEngine(const Module &raw, const std::vector<std::string> &passes,
          bool worklist)
{
    EngineRun run;
    run.module = raw; // cold: engine build / map rebuilds included
    const auto t0 = std::chrono::steady_clock::now();
    run.stats = worklist
                    ? runFrontendPipeline(run.module, passes)
                    : runFrontendPipelineSweep(run.module, passes);
    run.seconds = secondsSince(t0);
    return run;
}

} // namespace

int
main()
{
    banner("fig-opt: cold front-end optimize, sweep vs OptContext");

    std::vector<std::string> curves;
    for (const CurveDef &def : curveCatalog()) {
        if (fastMode() && def.name != "BN254N" &&
            def.name != "BLS12-381")
            continue;
        curves.push_back(def.name);
    }

    std::printf("%-12s %9s %9s %6s %9s %11s %8s %5s\n", "curve",
                "instrs", "after", "iters", "sweep s", "worklist s",
                "speedup", "same");

    std::string largest;
    size_t largestInstrs = 0;
    double largestSpeedup = 0.0;
    size_t identicalRuns = 0;
    size_t totalRuns = 0;

    for (const std::string &name : curves) {
        const ICurveHandle &h = curveHandle(name);
        const Module raw = h.trace(VariantConfig{}, TracePart::Full, false);

        const EngineRun sweep =
            runEngine(raw, frontendPassNames(), false);
        const EngineRun worklist =
            runEngine(raw, frontendPassNames(), true);
        const bool identical = sweep.module == worklist.module;
        const double speedup =
            worklist.seconds > 0.0 ? sweep.seconds / worklist.seconds
                                   : 0.0;
        ++totalRuns;
        identicalRuns += identical;

        std::printf("%-12s %9zu %9zu %6d %9.3f %11.3f %7.2fx %5s\n",
                    name.c_str(), raw.size(), worklist.module.size(),
                    worklist.stats.iterations, sweep.seconds,
                    worklist.seconds, speedup,
                    identical ? "yes" : "NO");

        if (raw.size() > largestInstrs) {
            largestInstrs = raw.size();
            largest = name;
            largestSpeedup = speedup;
        }
    }

    // Ablation identity on the largest curve: the worklist engine must
    // match the sweep engine for every single-pass pipeline too.
    if (!largest.empty()) {
        const ICurveHandle &h = curveHandle(largest);
        const Module raw = h.trace(VariantConfig{}, TracePart::Full, false);
        std::printf("\nsingle-pass ablations on %s:\n",
                    largest.c_str());
        for (const std::string &pass : frontendPassNames()) {
            const std::vector<std::string> pipeline = {pass};
            const EngineRun sweep = runEngine(raw, pipeline, false);
            const EngineRun worklist = runEngine(raw, pipeline, true);
            const bool identical = sweep.module == worklist.module;
            ++totalRuns;
            identicalRuns += identical;
            std::printf("  %-16s %9zu -> %9zu  %6.3fs vs %6.3fs  %s\n",
                        pass.c_str(), raw.size(),
                        worklist.module.size(), sweep.seconds,
                        worklist.seconds, identical ? "ok" : "MISMATCH");
        }
    }

    std::printf("\nlargest curve %s: %.2fx front-end speedup, "
                "%zu/%zu runs byte-identical\n",
                largest.c_str(), largestSpeedup, identicalRuns,
                totalRuns);

    // The floor binds on the full catalog only: the fast run's largest
    // curve is BLS12-381, a different ratio.
    const bool floorOk =
        fastMode() || meetsFloor("largest-curve speedup",
                                 largestSpeedup, kSpeedupFloor);
    return identicalRuns == totalRuns && floorOk ? 0 : 1;
}
