/**
 * @file
 * Cycle-accurate simulator (Sec. 3.4): replays a compiled schedule
 * against the pipeline model (in-order issue, instruction latencies,
 * data dependences, bank read ports, write-back conflicts / FIFO) and
 * reports cycle counts, IPC, bubbles, and the issue-queue occupancy
 * trace used by the Figure 9 waterfall. The replay runs on the same
 * dense port tracker the scheduler issues against (compiler/ports.h),
 * so the two views of the pipeline cannot diverge; the ordered-map
 * reference replay lives with the test oracles (tests/oracles/).
 */
#ifndef FINESSE_SIM_CYCLE_H_
#define FINESSE_SIM_CYCLE_H_

#include <array>
#include <vector>

#include "compiler/backend.h"

namespace finesse {

/** Per-cycle issue record inside the sampled window. */
struct IssueSample
{
    i64 cycle;
    int longOps = 0, shortOps = 0, invOps = 0;
};

struct CycleStats
{
    i64 totalCycles = 0;   ///< completion (last write-back of outputs)
    i64 issueCycles = 0;   ///< cycle of the last issued bundle
    size_t instrs = 0;
    i64 bubbles = 0;       ///< issue cycles with no instruction issued
    i64 maxFifoDefer = 0;  ///< worst write-back deferral observed

    std::vector<IssueSample> window; ///< sampled issue trace (Fig. 9)

    double
    ipc() const
    {
        return totalCycles ? static_cast<double>(instrs) /
                                 static_cast<double>(totalCycles)
                           : 0.0;
    }
};

struct BackendScratch; // compiler/backendprep.h

/**
 * Replay @p prog on its pipeline model. @p windowStart / @p windowLen
 * select the sampled issue-trace window (cycles).
 */
CycleStats simulateCycles(const CompiledProgram &prog,
                          i64 windowStart = 10000, i64 windowLen = 64);

/**
 * Piece-wise overload for the batched DSE path: simulates a schedule
 * against a shared, read-only module without requiring an owning
 * CompiledProgram. A non-null @p scratch reuses that worker's replay
 * buffers and dense port tracker (reset, not reallocated).
 */
CycleStats simulateCycles(const Module &m, const BankAssignment &banks,
                          const Schedule &sched, const PipelineModel &hw,
                          i64 windowStart = 10000, i64 windowLen = 64,
                          BackendScratch *scratch = nullptr);

} // namespace finesse

#endif // FINESSE_SIM_CYCLE_H_
