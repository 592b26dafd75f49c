/**
 * @file
 * Backend reference oracles: the legacy Module-walking PackSched
 * (Algorithm 2), the std::map RegAlloc and the cycle replay on the
 * ordered-map tracker. Compile and sweep alike go through the dense
 * engine (compiler/backendprep.h, sim/cycle.h); these are kept
 * byte-identical to it by tests/test_backend_props.cpp and
 * bench/fig_backend.
 */
#include "oracles.h"

#include <algorithm>
#include <map>
#include <queue>

#include "legacy_ports.h"
#include "sim/replay.h"

namespace finesse {

Schedule
scheduleModuleReference(const Module &m, const BankAssignment &banks,
                        const PipelineModel &hw, bool useListScheduling)
{
    hw.validate();
    const size_t n = m.body.size();

    Schedule sched;
    sched.numInstrs = n;
    sched.issueCycle.assign(n, 0);

    std::vector<i64> readyAt(m.numValues, 0);
    std::vector<i32> defInst(m.numValues, -1);
    for (size_t i = 0; i < n; ++i)
        defInst[m.body[i].dst] = static_cast<i32>(i);

    if (!useListScheduling) {
        // "Init" baseline: program order, single instruction per
        // bundle, in-order issue with interlock stalls.
        LegacyPortTracker ports(hw);
        sched.bundles.reserve(n);
        i64 cycle = 0;
        for (size_t i = 0; i < n; ++i) {
            const Inst &inst = m.body[i];
            const PortOp pop = makePortOp(inst, banks.bankOf);
            i64 t = cycle;
            if (arity(inst.op) >= 1)
                t = std::max(t, readyAt[inst.a]);
            if (arity(inst.op) >= 2)
                t = std::max(t, readyAt[inst.b]);
            while (!ports.tryIssue(pop, t, false))
                ++t;
            ports.tryIssue(pop, t, true);
            sched.issueCycle[i] = t;
            readyAt[inst.dst] = t + hw.latency(inst.op);
            sched.bundles.push_back({{static_cast<i32>(i)}});
            cycle = t + 1;
        }
        i64 done = 0;
        for (i32 out : m.outputs)
            done = std::max(done, readyAt[out]);
        sched.estimatedCycles = done;
        return sched;
    }

    // ---- Algorithm 2: affinity list scheduling with greedy packing ----
    // Use counts first, so every users[] vector is sized in one
    // allocation instead of growing geometrically.
    std::vector<int> deps(n, 0);
    std::vector<u32> useCount(m.numValues, 0);
    for (size_t i = 0; i < n; ++i) {
        const Inst &inst = m.body[i];
        if (arity(inst.op) >= 1 && defInst[inst.a] >= 0)
            ++useCount[inst.a];
        if (arity(inst.op) >= 2 && defInst[inst.b] >= 0)
            ++useCount[inst.b];
    }
    std::vector<std::vector<i32>> users(m.numValues);
    for (i32 v = 0; v < m.numValues; ++v) {
        if (useCount[v] > 0)
            users[v].reserve(useCount[v]);
    }
    for (size_t i = 0; i < n; ++i) {
        const Inst &inst = m.body[i];
        if (arity(inst.op) >= 1 && defInst[inst.a] >= 0) {
            deps[i]++;
            users[inst.a].push_back(static_cast<i32>(i));
        }
        if (arity(inst.op) >= 2 && defInst[inst.b] >= 0) {
            deps[i]++;
            users[inst.b].push_back(static_cast<i32>(i));
        }
    }

    // Critical-path priority (latency-weighted height).
    std::vector<i64> prio(n, 0);
    for (size_t i = n; i-- > 0;) {
        const Inst &inst = m.body[i];
        i64 best = hw.latency(inst.op);
        for (i32 u : users[m.body[i].dst])
            best = std::max(best, hw.latency(inst.op) + prio[u]);
        prio[i] = best;
    }

    const double longRatio =
        static_cast<double>(m.countUnit(UnitClass::Mul)) /
        static_cast<double>(std::max<size_t>(n, 1));
    const int period = std::max(hw.longLat - hw.shortLat, 1);

    // Issue-slot affinity (Sec. 3.5):
    // Affinity(T) := (T mod (m-n))/(m-n) <= #Long/#Instr + beta.
    auto longAffinity = [&](i64 cycle) {
        const double frac =
            static_cast<double>(cycle % period) / period;
        return frac <= longRatio + hw.beta;
    };

    using PendEntry = std::pair<i64, i32>;
    std::priority_queue<PendEntry, std::vector<PendEntry>,
                        std::greater<>> pending;
    std::vector<i64> earliest(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (deps[i] == 0)
            pending.push({0, static_cast<i32>(i)});
    }

    LegacyPortTracker ports(hw);
    std::vector<i32> ready;
    std::vector<i32> leftover; // reused across cycles (no realloc)
    ready.reserve(64);
    leftover.reserve(64);
    sched.bundles.reserve(
        n / static_cast<size_t>(std::max(hw.issueWidth, 1)) + 1);
    size_t remaining = n;
    i64 cycle = 0;

    while (remaining > 0) {
        while (!pending.empty() && pending.top().first <= cycle) {
            ready.push_back(pending.top().second);
            pending.pop();
        }
        if (ready.empty()) {
            FINESSE_CHECK(!pending.empty(), "scheduler deadlock");
            cycle = std::max(cycle + 1, pending.top().first);
            continue;
        }

        // sortByAffinity (Algorithm 2 line 9).
        const bool wantLong = longAffinity(cycle);
        std::sort(ready.begin(), ready.end(), [&](i32 x, i32 y) {
            const bool lx = unitOf(m.body[x].op) == UnitClass::Mul;
            const bool ly = unitOf(m.body[y].op) == UnitClass::Mul;
            if (lx != ly)
                return wantLong ? lx > ly : lx < ly;
            if (prio[x] != prio[y])
                return prio[x] > prio[y];
            return x < y;
        });

        // Greedy constraint-checked packing (solveMaxValidInstrPack).
        Bundle bundle;
        leftover.clear();
        for (i32 idx : ready) {
            bool issuedHere = false;
            if (static_cast<int>(bundle.instIdx.size()) < hw.issueWidth) {
                const Inst &inst = m.body[idx];
                const PortOp pop = makePortOp(inst, banks.bankOf);
                if (ports.tryIssue(pop, cycle, true)) {
                    bundle.instIdx.push_back(idx);
                    sched.issueCycle[idx] = cycle;
                    readyAt[inst.dst] = cycle + hw.latency(inst.op);
                    for (i32 u : users[inst.dst]) {
                        earliest[u] =
                            std::max(earliest[u], readyAt[inst.dst]);
                        if (--deps[u] == 0)
                            pending.push({earliest[u], u});
                    }
                    --remaining;
                    issuedHere = true;
                }
            }
            if (!issuedHere)
                leftover.push_back(idx);
        }
        ready.swap(leftover);
        if (!bundle.instIdx.empty())
            sched.bundles.push_back(std::move(bundle));
        ++cycle;
    }

    i64 done = 0;
    for (i32 out : m.outputs)
        done = std::max(done, readyAt[out]);
    sched.estimatedCycles = done;
    return sched;
}

RegAssignment
allocateRegistersReference(const Module &m, const BankAssignment &banks,
                           const Schedule &sched)
{
    RegAssignment ra;
    ra.regOf.assign(m.numValues, -1);
    ra.maxRegsPerBank.assign(banks.numBanks, 0);

    // Liveness in schedule order.
    std::vector<i64> lastUse(m.numValues, -1);
    std::vector<i64> defPos(m.numValues, -1);
    i64 pos = 0;
    for (const Bundle &b : sched.bundles) {
        for (i32 idx : b.instIdx) {
            const Inst &inst = m.body[idx];
            if (arity(inst.op) >= 1)
                lastUse[inst.a] = pos;
            if (arity(inst.op) >= 2)
                lastUse[inst.b] = pos;
            defPos[inst.dst] = pos;
        }
        ++pos;
    }
    for (i32 out : m.outputs)
        lastUse[out] = pos + 1; // outputs stay live to the end
    // Values defined but never read die at their definition point.
    for (const Bundle &b : sched.bundles) {
        for (i32 idx : b.instIdx) {
            const i32 d = m.body[idx].dst;
            if (lastUse[d] < 0)
                lastUse[d] = defPos[d];
        }
    }

    std::vector<std::vector<i32>> freeList(banks.numBanks);
    std::vector<i32> nextReg(banks.numBanks, 0);

    auto allocate = [&](i32 v) {
        const i32 bank = banks.bankOf[v];
        i32 reg;
        if (!freeList[bank].empty()) {
            reg = freeList[bank].back();
            freeList[bank].pop_back();
        } else {
            reg = nextReg[bank]++;
            ra.maxRegsPerBank[bank] =
                std::max(ra.maxRegsPerBank[bank], reg + 1);
        }
        ra.regOf[v] = reg;
    };

    // Constants and inputs are resident from program start; constants
    // are pinned (preloaded into DMem with the binary).
    for (const auto &c : m.constants) {
        lastUse[c.id] = pos + 1;
        allocate(c.id);
    }
    for (i32 in : m.inputs) {
        if (lastUse[in] < 0)
            lastUse[in] = 0;
        allocate(in);
    }

    std::map<i64, std::vector<i32>> expiry;
    for (i32 v = 0; v < m.numValues; ++v) {
        if (ra.regOf[v] >= 0)
            continue; // constants/inputs handled above
        if (lastUse[v] >= 0 && lastUse[v] <= pos)
            expiry[lastUse[v]].push_back(v);
    }

    pos = 0;
    for (const Bundle &b : sched.bundles) {
        auto it = expiry.begin();
        while (it != expiry.end() && it->first < pos) {
            for (i32 v : it->second) {
                if (ra.regOf[v] >= 0)
                    freeList[banks.bankOf[v]].push_back(ra.regOf[v]);
            }
            it = expiry.erase(it);
        }
        for (i32 idx : b.instIdx)
            allocate(m.body[idx].dst);
        ++pos;
    }
    return ra;
}

CycleStats
simulateCyclesReference(const CompiledProgram &prog, i64 windowStart,
                        i64 windowLen)
{
    LegacyPortTracker ports(prog.hw);
    std::vector<i64> readyAt;
    std::vector<PortOp> pops;
    return replaySchedule(prog.module, prog.banks, prog.schedule,
                          prog.hw, windowStart, windowLen, ports,
                          readyAt, pops);
}

} // namespace finesse
