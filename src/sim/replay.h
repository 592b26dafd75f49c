/**
 * @file
 * The one cycle-simulator replay loop (Sec. 3.4), templated on the
 * structural-hazard tracker: simulateCycles instantiates it with the
 * dense PortTracker, and the reference oracle of the test suite with
 * its ordered-map tracker, so both views replay through the same code.
 */
#ifndef FINESSE_SIM_REPLAY_H_
#define FINESSE_SIM_REPLAY_H_

#include <algorithm>
#include <vector>

#include "compiler/ports.h"
#include "sim/cycle.h"

namespace finesse {

/**
 * Replay @p sched on @p hw against @p ports (freshly reset), in-order
 * bundle issue with dependence and structural stalls. @p readyAt and
 * @p pops are caller-owned buffers, reused across calls.
 */
template <typename Tracker>
CycleStats
replaySchedule(const Module &m, const BankAssignment &banks,
               const Schedule &sched, const PipelineModel &hw,
               i64 windowStart, i64 windowLen, Tracker &ports,
               std::vector<i64> &readyAt, std::vector<PortOp> &pops)
{
    CycleStats stats;
    stats.instrs = m.body.size();

    readyAt.assign(static_cast<size_t>(m.numValues), 0);

    i64 cycle = 0;
    i64 lastWriteback = 0;

    for (const Bundle &bundle : sched.bundles) {
        // Dependence stall: every op's operands must be ready.
        i64 t = cycle;
        pops.clear();
        for (i32 idx : bundle.instIdx) {
            const Inst &inst = m.body[idx];
            if (arity(inst.op) >= 1)
                t = std::max(t, readyAt[inst.a]);
            if (arity(inst.op) >= 2)
                t = std::max(t, readyAt[inst.b]);
            pops.push_back(makePortOp(inst, banks.bankOf));
        }
        // Structural stall: ports/units/write-back.
        while (!ports.canIssueBundle(pops, t))
            ++t;
        ports.commitBundle(pops, t);

        stats.bubbles += t - cycle;
        for (i32 idx : bundle.instIdx) {
            const Inst &inst = m.body[idx];
            readyAt[inst.dst] = t + hw.latency(inst.op);
            lastWriteback = std::max(lastWriteback, readyAt[inst.dst]);
        }

        if (t >= windowStart && t < windowStart + windowLen) {
            IssueSample s{t, 0, 0, 0};
            for (i32 idx : bundle.instIdx) {
                switch (unitOf(m.body[idx].op)) {
                  case UnitClass::Mul:
                    s.longOps++;
                    break;
                  case UnitClass::Linear:
                    s.shortOps++;
                    break;
                  case UnitClass::Inv:
                    s.invOps++;
                    break;
                  case UnitClass::None:
                    break;
                }
            }
            stats.window.push_back(s);
        }

        stats.issueCycles = t;
        cycle = t + 1;
    }

    i64 done = lastWriteback;
    for (i32 out : m.outputs)
        done = std::max(done, readyAt[out]);
    stats.totalCycles = done;
    stats.maxFifoDefer = ports.maxFifoDefer();
    return stats;
}

} // namespace finesse

#endif // FINESSE_SIM_REPLAY_H_
