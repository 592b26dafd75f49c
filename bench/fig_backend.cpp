/**
 * @file
 * Backend sweep engine benchmark + identity gate: times the legacy
 * per-point reference path against the batched engine, per curve,
 * across the Fig. 10 hardware-model grid, and verifies the two are
 * byte-identical.
 *
 * Reference arm (the pre-batching design-point cost): clone the
 * cached trace module, rebuild the dependence graph inside
 * scheduleModuleReference (ordered-map LegacyPortTracker), run the
 * std::map allocateRegistersReference + full encode, then
 * cycle-simulate on the legacy tracker.
 * Batched arm: one TracePrep per trace shared by every point, dense
 * PortTracker + reusable BackendScratch (runBackendPoint computes the
 * encoding layout instead of materializing words -- exactly what the
 * DSE metrics consume), then cycle-simulate out of the same scratch.
 *
 * Any mismatch in schedule (issueCycle, bundles, estimatedCycles),
 * register assignment, IMem footprint or simulated cycles is counted
 * and makes the bench exit non-zero (CI gate), as does an aggregate
 * speedup below kSpeedupFloor, in either mode.
 */
#include <chrono>

#include "bench_common.h"
#include "compiler/backendprep.h"
#include "dse/explorer.h"
#include "oracles.h"

using namespace finesse;

namespace {

/**
 * 80 % of the full-catalog aggregate speedup (3.149x) measured on a
 * 1-core container; about 8x on a 4-vCPU VM.
 */
constexpr double kSpeedupFloor = 0.8 * 3.14879;

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    banner("Backend sweep engine: reference vs batched");

    std::vector<std::string> curves;
    if (fastMode()) {
        curves = {"BN254N"};
    } else {
        for (const CurveDef &def : curveCatalog())
            curves.push_back(def.name);
    }
    const std::vector<PipelineModel> models = fig10HardwareModels();

    TextTable t;
    t.header({"Curve", "Instrs", "Points", "Ref s", "Batched s",
              "Speedup"});

    size_t mismatches = 0;
    double totalRef = 0, totalBatched = 0;
    size_t totalPoints = 0;

    for (const std::string &curve : curves) {
        Framework fw(curve);
        OptStats stats;
        const std::shared_ptr<const Module> trace =
            fw.traceShared(CompileOptions{}, stats);
        const Module &m = *trace;

        // ---- reference arm: per-point clone + graph rebuild + maps.
        std::vector<Schedule> refScheds;
        std::vector<RegAssignment> refRegs;
        std::vector<size_t> refImem;
        std::vector<i64> refCycles;
        const auto t0 = std::chrono::steady_clock::now();
        for (const PipelineModel &hw : models) {
            const Module copy = m; // the pre-batching per-point clone
            BankAssignment banks;
            assignBanksInto(copy, hw, banks);
            Schedule sched =
                scheduleModuleReference(copy, banks, hw, true);
            RegAssignment regs =
                allocateRegistersReference(copy, banks, sched);
            CompiledProgram prog;
            prog.module = copy;
            prog.banks = banks;
            prog.schedule = sched;
            prog.regs = regs;
            prog.hw = hw;
            const EncodedProgram enc = encodeProgram(prog);
            refCycles.push_back(
                simulateCyclesReference(prog).totalCycles);
            refImem.push_back(enc.imemBits());
            refScheds.push_back(std::move(sched));
            refRegs.push_back(std::move(regs));
        }
        const double refSeconds = wallSeconds(t0);

        // ---- batched arm: shared prep, reusable scratch, dense maps.
        const auto t1 = std::chrono::steady_clock::now();
        const TracePrep prep = buildTracePrep(m);
        BackendScratch scratch;
        std::vector<i64> batchedCycles;
        size_t curveMismatches = 0;
        for (size_t h = 0; h < models.size(); ++h) {
            BackendPoint &bp = scratch.point;
            runBackendPoint(m, prep, models[h], true, scratch, bp);
            batchedCycles.push_back(
                simulateCycles(m, bp.banks, bp.schedule, models[h],
                               10000, 64, &scratch)
                    .totalCycles);
            curveMismatches += bp.schedule != refScheds[h];
            curveMismatches += bp.regs != refRegs[h];
            curveMismatches += bp.imemBits != refImem[h];
            curveMismatches += batchedCycles[h] != refCycles[h];
        }
        const double batchedSeconds = wallSeconds(t1);
        mismatches += curveMismatches;

        const double speedup =
            batchedSeconds > 0 ? refSeconds / batchedSeconds : 0.0;
        t.row({curve, fmtK(double(m.size())),
               std::to_string(models.size()), fmt(refSeconds),
               fmt(batchedSeconds), fmt(speedup) + "x"});

        totalRef += refSeconds;
        totalBatched += batchedSeconds;
        totalPoints += models.size();
        if (curveMismatches) {
            std::printf("!! %zu identity mismatches on %s\n",
                        curveMismatches, curve.c_str());
        }
    }
    t.print();

    const double speedup =
        totalBatched > 0 ? totalRef / totalBatched : 0.0;
    std::printf(
        "\n%zu backend points | reference %.2f s (%.1f pts/s) | "
        "batched %.2f s (%.1f pts/s) | speedup %.2fx | "
        "%zu identity mismatches\n",
        totalPoints, totalRef, totalPoints / std::max(totalRef, 1e-9),
        totalBatched, totalPoints / std::max(totalBatched, 1e-9),
        speedup, mismatches);

    const bool floorOk =
        meetsFloor("aggregate speedup", speedup, kSpeedupFloor);
    return mismatches == 0 && floorOk ? 0 : 1;
}
