/**
 * @file
 * Design-space exploration (Sec. 3.6). The design space is the cross
 * product of operator-variant combinations and hardware pipeline
 * models; the co-design loop evaluates each point with the compiler +
 * cycle simulator (cycle counts) and the area/timing models (silicon
 * feedback), exactly the feedback structure of the paper, with the
 * analytic models substituting for EDA runs.
 */
#ifndef FINESSE_DSE_EXPLORER_H_
#define FINESSE_DSE_EXPLORER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/framework.h"

namespace finesse {

/** One evaluated point of the design space. */
struct DsePoint
{
    std::string label;
    VariantConfig variants;
    PipelineModel hw;
    int cores = 1;

    // Compiler/simulator feedback.
    size_t instrs = 0;
    size_t mulInstrs = 0;
    size_t linInstrs = 0;
    i64 cycles = 0;
    double ipc = 0;

    // Area/timing feedback.
    double areaMm2 = 0;
    double freqMHz = 0;
    double criticalPathNs = 0;

    // Derived metrics.
    double latencyUs = 0;
    double throughputOps = 0;  ///< pairings per second (all cores)
    double thptPerArea = 0;    ///< ops / s / mm^2

    double compileSeconds = 0;

    // Per-pass compiler attribution (Table 7 per-optimization rows).
    OptStats opt;
};

/**
 * Fill @p p's model metrics (its hw and cores set) from its cycle
 * simulation and area report: the one derivation of frequency,
 * latency, throughput and thpt-per-area.
 */
void fillModelMetrics(DsePoint &p, int fpBits, const CycleStats &sim,
                      const AreaReport &area);

/** Objective helpers for exploration. */
enum class Objective { MinCycles, MaxThroughput, MaxThptPerArea, MinArea };

/** One design point to evaluate (input side of evaluateAll). */
struct DseRequest
{
    CompileOptions opt;
    int cores = 1;
    std::string label;
};

/** Explorer: evaluates and exhaustively searches design points. */
class Explorer
{
  public:
    explicit Explorer(const std::string &curveName)
        : fw_(curveName), curve_(curveName)
    {}

    const Framework &framework() const { return fw_; }

    /**
     * Compile + simulate + model one design point: a one-request,
     * serial evaluateAll. The front end goes through the process-wide
     * trace cache and the backend runs on the batched engine against
     * the shared (un-cloned) cached trace.
     */
    DsePoint evaluate(const CompileOptions &opt, int cores,
                      const std::string &label) const;

    /**
     * Evaluate many design points concurrently on @p jobs worker
     * threads (0 = hardware concurrency, 1 = serial inline). Requests
     * are grouped by front-end trace key: each group's trace is
     * obtained (cached, shared, un-cloned) and prepped exactly once,
     * then every worker evaluates points against the shared immutable
     * (TracePrep, module) with its own reusable BackendScratch.
     * Results come back index-aligned with @p points, and every point
     * is evaluated by the same deterministic, RNG-free computation as
     * evaluate(), so the output is identical for any jobs value --
     * only wall-clock time changes. tests/test_parallel_dse.cpp checks
     * it field by field against per-point Framework::compile.
     */
    std::vector<DsePoint> evaluateAll(const std::vector<DseRequest> &points,
                                      int jobs = 0) const;

    /**
     * Evaluate a hardware model against an already-traced module
     * (reuses the front end across a hardware sweep). Runs the
     * batched backend engine against @p m by const reference -- no
     * module copy.
     */
    DsePoint evaluateModule(const Module &m, const PipelineModel &hw,
                            int cores, const std::string &label) const;

    /**
     * Exhaustive operator-variant space for this curve's tower
     * (Table 5): mul in {Schoolbook, Karatsuba} and the applicable
     * squaring variants per level. @p mulOnly restricts to
     * multiplication variants (squarings fixed at defaults).
     */
    std::vector<VariantConfig> variantSpace(bool mulOnly) const;

    /** All-Karatsuba / all-Schoolbook / manually-tuned presets. */
    VariantConfig allKaratsuba() const;
    VariantConfig allSchoolbook() const;
    /** Heuristic tuned for single-issue pipelines (Fig. 10 "Manual"). */
    VariantConfig manualHeuristic() const;

    /**
     * Exhaustive search over variant combinations for a fixed hardware
     * model; returns the best point under @p objective (co-design
     * inner loop).
     */
    DsePoint exploreVariants(const PipelineModel &hw, Objective objective,
                             bool mulOnly = true) const;

    /**
     * As above, but every evaluated point inherits @p base (pass
     * pipeline, trace-cache flag, part, ...); only the variants are
     * swept. `base.jobs` selects the sweep parallelism; the winner is
     * chosen by a stable index-ordered reduction (ties break toward
     * the earlier variant combination), so the result is identical
     * for every jobs value.
     */
    DsePoint exploreVariants(const CompileOptions &base,
                             Objective objective,
                             bool mulOnly = true) const;

    /** Tower extension degrees of this curve (e.g. {2, 6, 12}). */
    std::vector<int> towerDegrees() const;

    static double score(const DsePoint &p, Objective objective);

  private:
    Framework fw_;
    std::string curve_;
};

/**
 * Standard hardware-model sweep of Fig. 10: single-issue deep pipeline
 * plus progressively wider shallow-pipeline VLIW models.
 */
std::vector<PipelineModel> fig10HardwareModels();

/** Preset rows leading each model's block of fig10Grid(). */
inline constexpr size_t kFig10Presets = 3;

/**
 * The Fig. 10 grid: the Manual, All-Schoolbook and All-Karatsuba
 * presets (labeled "Manual", "All sch.", "All karat.") then the
 * mul-variant space (labeled "probe"), on every fig10HardwareModels()
 * model. Model-major, so ADJACENT requests carry DISTINCT trace keys
 * and a parallel sweep traces different keys concurrently instead of
 * piling onto one in-flight trace.
 */
std::vector<DseRequest> fig10Grid(const Explorer &ex);

} // namespace finesse

#endif // FINESSE_DSE_EXPLORER_H_
