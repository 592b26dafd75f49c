/**
 * @file
 * Cycle-accurate simulator implementation. Issue rules are shared with
 * the scheduler through compiler/ports.h, so simulated timing and
 * scheduled timing can only diverge through in-order head-of-line
 * blocking, which this simulator models explicitly. The replay loop
 * itself (sim/replay.h) runs on the dense PortTracker, optionally out
 * of a sweep worker's BackendScratch.
 */
#include "sim/cycle.h"

#include "compiler/backendprep.h"
#include "sim/replay.h"

namespace finesse {

CycleStats
simulateCycles(const Module &m, const BankAssignment &banks,
               const Schedule &sched, const PipelineModel &hw,
               i64 windowStart, i64 windowLen, BackendScratch *scratch)
{
    if (scratch) {
        scratch->simPorts.reset(hw);
        return replaySchedule(m, banks, sched, hw, windowStart,
                              windowLen, scratch->simPorts,
                              scratch->simReadyAt, scratch->pops);
    }
    PortTracker ports(hw);
    std::vector<i64> readyAt;
    std::vector<PortOp> pops;
    return replaySchedule(m, banks, sched, hw, windowStart, windowLen,
                          ports, readyAt, pops);
}

CycleStats
simulateCycles(const CompiledProgram &prog, i64 windowStart,
               i64 windowLen)
{
    return simulateCycles(prog.module, prog.banks, prog.schedule,
                          prog.hw, windowStart, windowLen, nullptr);
}

} // namespace finesse
