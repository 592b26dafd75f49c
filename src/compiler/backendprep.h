/**
 * @file
 * The backend stage functions (assignBanksInto, scheduleModule,
 * allocateRegistersInto), the per-trace artifact (TracePrep), the
 * per-worker buffer set (BackendScratch) and the backend point runner.
 *
 * The backend is one fixed sequence, BankAlloc -> PackSched ->
 * RegAlloc -> ASM/Link, and runBackendPoint is what runs it: compile
 * (runBackend, core/framework.h) calls it with a per-call prep and
 * scratch and then encodes the binary; the sweep calls it against one
 * TracePrep per cached trace, built once and shared read-only by every
 * worker. All per-point working state lives in a BackendScratch that
 * is reset -- never reallocated -- between points. The stages are
 * byte-identical to the reference oracles in tests/oracles/, checked
 * by tests/test_backend_props.cpp, bench/fig_backend.cpp and
 * the sched.* lines of tests/golden/catalog.txt.
 */
#ifndef FINESSE_COMPILER_BACKENDPREP_H_
#define FINESSE_COMPILER_BACKENDPREP_H_

#include <utility>
#include <vector>

#include "compiler/backend.h"
#include "compiler/passes.h"
#include "compiler/ports.h"

namespace finesse {

/**
 * Immutable, hardware-independent prep of one front-end trace:
 * defining instruction per value, in-body dependence counts, a CSR
 * users table (users listed in body order, exactly the order the
 * legacy per-point vectors produced), and per-instruction unit/arity
 * classes. Computed once per cached trace; shared read-only by all
 * design points of that trace.
 */
struct TracePrep
{
    i32 numValues = 0;
    size_t numInstrs = 0;
    std::vector<i32> defInst; ///< per value id: body index or -1
    std::vector<int> deps;    ///< per body index: # in-body operand deps
    std::vector<i32> userStart; ///< CSR offsets, size numValues + 1
    std::vector<i32> userList;  ///< CSR payload: user body indices
    std::vector<u8> unit;       ///< UnitClass per body index
    std::vector<u8> numReads;   ///< register-operand arity per body index
    size_t mulInstrs = 0;       ///< countUnit(Mul), precomputed
    size_t linInstrs = 0;       ///< countUnit(Linear), precomputed

    /** Users of value @p v (body indices, body order). */
    std::pair<const i32 *, const i32 *>
    usersOf(i32 v) const
    {
        return {userList.data() + userStart[static_cast<size_t>(v)],
                userList.data() + userStart[static_cast<size_t>(v) + 1]};
    }
};

/** Build the prep for @p m (one O(body) pass set). */
TracePrep buildTracePrep(const Module &m);

/** Backend artifacts of one (trace, hw) point; the module is shared,
 *  not owned. The encoded binary is summarized by its layout (word
 *  width / IMem bits) -- exactly what the area model consumes -- so a
 *  sweep point never materializes instruction words or clones the
 *  constant pool. */
struct BackendPoint
{
    BankAssignment banks;
    Schedule schedule;
    RegAssignment regs;
    int wordBits = 0;
    size_t imemBits = 0;
    double seconds = 0.0; ///< backend wall time for this point
    // Per-stage wall times, pipeline order (for --pass-stats rows).
    double bankallocSeconds = 0.0;
    double packschedSeconds = 0.0;
    double regallocSeconds = 0.0;
    double encodeSeconds = 0.0;
};

/** A ready instruction of the list scheduler: (priority, body index). */
using ReadyEntry = std::pair<i64, i32>;

/**
 * Reusable per-worker working set for backend runs: the list
 * scheduler's priorities, pending heap (instructions whose operands
 * are not yet available, keyed by earliest cycle), per-unit ready
 * heaps and per-bundle deferred list; register-allocator liveness and
 * expiry buffers; simulator replay buffers; and the dense port
 * trackers. Every buffer is reset with its capacity retained, so a
 * warmed-up worker evaluates a design point with near-zero heap
 * traffic. One scratch per worker thread; never shared concurrently.
 */
struct BackendScratch
{
    // Scheduler.
    std::vector<i64> readyAt, prio, earliest;
    std::vector<int> deps;
    std::vector<std::pair<i64, i32>> pending; ///< binary min-heap
    /// Ready instructions by unit class (Mul, Linear, Inv and Nop),
    /// each a binary max-heap on (priority desc, body index asc).
    std::vector<ReadyEntry> readyMul, readyLin, readyRest;
    std::vector<i32> deferred; ///< popped this bundle, failed tryIssue
    PortTracker ports;
    // Register allocator.
    std::vector<i64> lastUse, defPos;
    std::vector<i32> expiryStart, expiryCursor, expiryList;
    std::vector<std::vector<i32>> freeList;
    std::vector<i32> nextReg;
    // Cycle simulator.
    std::vector<i64> simReadyAt;
    std::vector<PortOp> pops;
    PortTracker simPorts;
    // Reused per-point result (for sweeps that consume metrics only).
    BackendPoint point;
};

/**
 * BankAlloc: residual (modulo) bank assignment, the paper's baseline.
 * Validates @p hw first: this is the backend's entry point, and every
 * later stage relies on a well-formed model (numBanks >= 1, ...).
 */
void assignBanksInto(const Module &m, const PipelineModel &hw,
                     BankAssignment &out);

/**
 * PackSched. When @p useListScheduling is false the schedule is plain
 * program order (one instruction per bundle): the "Init" baseline.
 * Otherwise: top-down list scheduling over the dependence DAG with
 * issue-slot affinity ordering and greedy constraint-checked packing
 * (Algorithm 2). All working state lives in @p scratch; @p sched is
 * overwritten in place, reusing its buffers.
 *
 * Each cycle visits ready instructions in the paper's sortByAffinity
 * order -- the Mul class first when longAffinity(cycle) holds, else
 * last; within the other classes by (priority desc, body index asc)
 * -- and issues each one tryIssue accepts. The order comes from three
 * ready heaps (Mul, Linear, Inv + Nop): the Mul heap is popped as a
 * block, the other two are merged by comparing their tops. Visiting
 * stops when the bundle holds issueWidth ops, and skips the Mul heap
 * after one Mul issues and the Linear heap after numLinUnits Linear
 * ops issue, because tryIssue would reject the rest without side
 * effects. The Inv + Nop heap is never skipped: Nop has no unit
 * limit, and a second Inv in a bundle just fails tryIssue. A popped
 * op that fails tryIssue is pushed back after the bundle closes. The
 * schedule therefore equals the reference scheduler's
 * (tests/oracles/), which sorts the whole ready list every cycle; an
 * issue costs O(log R) for R ready ops, plus O(log R) for each
 * rejected candidate (1.2 to 2.1 per issue on BN254N across the
 * Fig. 10 models).
 */
void scheduleModule(const Module &m, const TracePrep &prep,
                    const BankAssignment &banks, const PipelineModel &hw,
                    bool useListScheduling, BackendScratch &scratch,
                    Schedule &sched);

/**
 * RegAlloc: linear-scan allocation in schedule order with per-bank
 * free lists; constants are pinned (preloaded into DMem). Liveness and
 * counting-sorted expiry buffers live in @p scratch.
 */
void allocateRegistersInto(const Module &m, const BankAssignment &banks,
                           const Schedule &sched, BackendScratch &scratch,
                           RegAssignment &out);

/**
 * One full backend point: BankAlloc + PackSched + RegAlloc + encoding
 * layout (word width, IMem bits -- the encode-stage outputs the DSE
 * metrics actually consume, including the register-pressure encoding
 * check). Writes into @p out, reusing its buffers.
 */
void runBackendPoint(const Module &m, const TracePrep &prep,
                     const PipelineModel &hw, bool listSchedule,
                     BackendScratch &scratch, BackendPoint &out);

/**
 * Append the four backend stage rows (bankalloc, packsched, regalloc,
 * encode) of @p bp to @p stats: one invocation each, the stage's wall
 * time, no instruction delta. Compile and sweep report through this.
 */
void appendBackendStats(OptStats &stats, const BackendPoint &bp);

} // namespace finesse

#endif // FINESSE_COMPILER_BACKENDPREP_H_
