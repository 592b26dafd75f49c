/**
 * @file
 * Reference oracles of the compiler backend and the cycle simulator,
 * built into the test-only finesse_oracles library. Each is the
 * legacy implementation its dense counterpart replaced, and must agree
 * with it exactly: tests/test_backend_props.cpp checks schedules,
 * registers and simulated cycles over the hardware grid and the
 * catalog, and bench/fig_backend times the two and counts mismatches.
 */
#ifndef FINESSE_ORACLES_ORACLES_H_
#define FINESSE_ORACLES_ORACLES_H_

#include "compiler/backend.h"
#include "sim/cycle.h"

namespace finesse {

/**
 * Reference oracle of scheduleModule: the legacy Module-walking
 * scheduler (per-call dependence-graph rebuild, ordered-map
 * LegacyPortTracker).
 */
Schedule scheduleModuleReference(const Module &m,
                                 const BankAssignment &banks,
                                 const PipelineModel &hw,
                                 bool useListScheduling);

/**
 * Reference oracle of allocateRegistersInto: its std::map expiry
 * buckets are the legacy implementation.
 */
RegAssignment allocateRegistersReference(const Module &m,
                                         const BankAssignment &banks,
                                         const Schedule &sched);

/**
 * Reference oracle of simulateCycles: the same replay loop
 * (sim/replay.h) on the LegacyPortTracker.
 */
CycleStats simulateCyclesReference(const CompiledProgram &prog,
                                   i64 windowStart = 10000,
                                   i64 windowLen = 64);

} // namespace finesse

#endif // FINESSE_ORACLES_ORACLES_H_
