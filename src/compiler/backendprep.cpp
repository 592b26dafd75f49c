/**
 * @file
 * Batched backend engine implementation: TracePrep construction and
 * the allocation-free scheduling / register-allocation / layout run
 * over a shared trace. Every scheduling and allocation decision is
 * made in the same order as the reference implementations in
 * backend.cpp, though the data structures differ (the list scheduler
 * pops per-unit ready heaps where the reference sorts a ready list;
 * the allocator counting-sorts expiries where the reference keeps a
 * std::map) -- the identity tests, bench/fig_backend and the sched.*
 * goldens enforce byte-equality.
 */
#include "compiler/backendprep.h"

#include <algorithm>
#include <chrono>

#include "compiler/pipeline.h"
#include "isa/encode.h"

namespace finesse {

TracePrep
buildTracePrep(const Module &m)
{
    TracePrep prep;
    const size_t n = m.body.size();
    prep.numValues = m.numValues;
    prep.numInstrs = n;

    prep.defInst.assign(static_cast<size_t>(m.numValues), -1);
    for (size_t i = 0; i < n; ++i)
        prep.defInst[static_cast<size_t>(m.body[i].dst)] =
            static_cast<i32>(i);

    prep.deps.assign(n, 0);
    prep.unit.resize(n);
    prep.numReads.resize(n);
    prep.userStart.assign(static_cast<size_t>(m.numValues) + 1, 0);
    for (size_t i = 0; i < n; ++i) {
        const Inst &inst = m.body[i];
        const UnitClass u = unitOf(inst.op);
        prep.unit[i] = static_cast<u8>(u);
        prep.numReads[i] = static_cast<u8>(arity(inst.op));
        prep.mulInstrs += u == UnitClass::Mul;
        prep.linInstrs += u == UnitClass::Linear;
        if (arity(inst.op) >= 1 && prep.defInst[inst.a] >= 0) {
            prep.deps[i]++;
            prep.userStart[static_cast<size_t>(inst.a) + 1]++;
        }
        if (arity(inst.op) >= 2 && prep.defInst[inst.b] >= 0) {
            prep.deps[i]++;
            prep.userStart[static_cast<size_t>(inst.b) + 1]++;
        }
    }
    for (size_t v = 0; v < static_cast<size_t>(m.numValues); ++v)
        prep.userStart[v + 1] += prep.userStart[v];
    prep.userList.resize(
        static_cast<size_t>(prep.userStart[m.numValues]));
    // Fill in body order (cursor per value), matching the order the
    // legacy per-point users[] vectors were appended in.
    std::vector<i32> cursor(prep.userStart.begin(),
                            prep.userStart.end() - 1);
    for (size_t i = 0; i < n; ++i) {
        const Inst &inst = m.body[i];
        if (arity(inst.op) >= 1 && prep.defInst[inst.a] >= 0)
            prep.userList[static_cast<size_t>(cursor[inst.a]++)] =
                static_cast<i32>(i);
        if (arity(inst.op) >= 2 && prep.defInst[inst.b] >= 0)
            prep.userList[static_cast<size_t>(cursor[inst.b]++)] =
                static_cast<i32>(i);
    }
    return prep;
}

void
assignBanksInto(const Module &m, const PipelineModel &hw,
                BankAssignment &out)
{
    hw.validate();
    out.numBanks = hw.numBanks;
    out.bankOf.resize(static_cast<size_t>(m.numValues));
    for (i32 v = 0; v < m.numValues; ++v)
        out.bankOf[static_cast<size_t>(v)] = v % hw.numBanks;
}

namespace {

using PendEntry = std::pair<i64, i32>;

/** Ready-heap order: true when @p a pops after @p b, i.e. @p a has
 *  lower priority, or equal priority and a higher body index. */
bool
popsAfter(const ReadyEntry &a, const ReadyEntry &b)
{
    return a.first != b.first ? a.first < b.first : a.second > b.second;
}

/** Append into @p sched.bundles reusing retained Bundle capacity. */
Bundle &
nextBundle(Schedule &sched, size_t &used)
{
    if (used == sched.bundles.size())
        sched.bundles.emplace_back();
    Bundle &b = sched.bundles[used++];
    b.instIdx.clear();
    return b;
}

} // namespace

void
scheduleModule(const Module &m, const TracePrep &prep,
               const BankAssignment &banks, const PipelineModel &hw,
               bool useListScheduling, BackendScratch &scratch,
               Schedule &sched)
{
    const size_t n = m.body.size();
    FINESSE_CHECK(prep.numInstrs == n &&
                      prep.numValues == m.numValues,
                  "TracePrep does not match module");

    sched.numInstrs = n;
    sched.issueCycle.assign(n, 0);
    sched.estimatedCycles = 0;
    size_t usedBundles = 0;

    std::vector<i64> &readyAt = scratch.readyAt;
    readyAt.assign(static_cast<size_t>(m.numValues), 0);
    PortTracker &ports = scratch.ports;
    ports.reset(hw);

    if (!useListScheduling) {
        // "Init" baseline: program order, single instruction per
        // bundle, in-order issue with interlock stalls.
        i64 cycle = 0;
        for (size_t i = 0; i < n; ++i) {
            const Inst &inst = m.body[i];
            const PortOp pop = makePortOp(inst, banks.bankOf);
            i64 t = cycle;
            if (prep.numReads[i] >= 1)
                t = std::max(t, readyAt[inst.a]);
            if (prep.numReads[i] >= 2)
                t = std::max(t, readyAt[inst.b]);
            while (!ports.tryIssue(pop, t, false))
                ++t;
            ports.tryIssue(pop, t, true);
            sched.issueCycle[i] = t;
            readyAt[inst.dst] = t + hw.latency(inst.op);
            nextBundle(sched, usedBundles)
                .instIdx.push_back(static_cast<i32>(i));
            cycle = t + 1;
        }
        i64 done = 0;
        for (i32 out : m.outputs)
            done = std::max(done, readyAt[out]);
        sched.estimatedCycles = done;
        sched.bundles.resize(usedBundles);
        return;
    }

    // ---- Algorithm 2: affinity list scheduling with greedy packing,
    // against the shared dependence graph (no per-point rebuild).
    std::vector<int> &deps = scratch.deps;
    deps.assign(prep.deps.begin(), prep.deps.end());

    // Critical-path priority (latency-weighted height).
    std::vector<i64> &prio = scratch.prio;
    prio.assign(n, 0);
    for (size_t i = n; i-- > 0;) {
        const Inst &inst = m.body[i];
        i64 best = hw.latency(inst.op);
        const auto [ub, ue] = prep.usersOf(inst.dst);
        for (const i32 *u = ub; u != ue; ++u)
            best = std::max(best, hw.latency(inst.op) + prio[*u]);
        prio[i] = best;
    }

    const double longRatio =
        static_cast<double>(prep.mulInstrs) /
        static_cast<double>(std::max<size_t>(n, 1));
    const int period = std::max(hw.longLat - hw.shortLat, 1);

    // Issue-slot affinity (Sec. 3.5):
    // Affinity(T) := (T mod (m-n))/(m-n) <= #Long/#Instr + beta.
    auto longAffinity = [&](i64 cycle) {
        const double frac =
            static_cast<double>(cycle % period) / period;
        return frac <= longRatio + hw.beta;
    };

    // Min-heap on (earliest cycle, body index): identical pop order to
    // the reference priority_queue (keys are unique, so the minimum --
    // and therefore the pop sequence -- is fully determined).
    std::vector<PendEntry> &pending = scratch.pending;
    pending.clear();
    const auto heapGreater = std::greater<PendEntry>{};
    auto heapPush = [&](PendEntry e) {
        pending.push_back(e);
        std::push_heap(pending.begin(), pending.end(), heapGreater);
    };
    auto heapPop = [&] {
        std::pop_heap(pending.begin(), pending.end(), heapGreater);
        pending.pop_back();
    };

    std::vector<i64> &earliest = scratch.earliest;
    earliest.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (deps[i] == 0)
            heapPush({0, static_cast<i32>(i)});
    }

    // Ready instructions, one max-heap per unit class on (priority
    // desc, body index asc): the sort key of Algorithm 2 line 9 within
    // a class. Nop (no unit limit) shares the Inv heap.
    std::vector<ReadyEntry> &readyMul = scratch.readyMul;
    std::vector<ReadyEntry> &readyLin = scratch.readyLin;
    std::vector<ReadyEntry> &readyRest = scratch.readyRest;
    std::vector<i32> &deferred = scratch.deferred;
    readyMul.clear();
    readyLin.clear();
    readyRest.clear();
    deferred.clear();
    auto heapOf = [&](i32 idx) -> std::vector<ReadyEntry> & {
        switch (UnitClass(prep.unit[static_cast<size_t>(idx)])) {
          case UnitClass::Mul:
            return readyMul;
          case UnitClass::Linear:
            return readyLin;
          default:
            return readyRest;
        }
    };
    auto pushReady = [&](i32 idx) {
        std::vector<ReadyEntry> &h = heapOf(idx);
        h.push_back({prio[static_cast<size_t>(idx)], idx});
        std::push_heap(h.begin(), h.end(), popsAfter);
    };

    size_t remaining = n;
    i64 cycle = 0;

    while (remaining > 0) {
        while (!pending.empty() && pending.front().first <= cycle) {
            pushReady(pending.front().second);
            heapPop();
        }
        if (readyMul.empty() && readyLin.empty() && readyRest.empty()) {
            FINESSE_CHECK(!pending.empty(), "scheduler deadlock");
            cycle = std::max(cycle + 1, pending.front().first);
            continue;
        }

        // Greedy constraint-checked packing (solveMaxValidInstrPack)
        // in sortByAffinity order (Algorithm 2 line 9): the Mul class
        // first or last by affinity, the other classes merged by key.
        // A class whose unit is full in this bundle is skipped:
        // tryIssue would reject each of its ops without side effects.
        Bundle &bundle = nextBundle(sched, usedBundles);
        int mulIssued = 0, linIssued = 0;
        auto full = [&] {
            return static_cast<int>(bundle.instIdx.size()) >=
                   hw.issueWidth;
        };
        auto mulOpen = [&] { return mulIssued < 1 && !readyMul.empty(); };
        auto linOpen = [&] {
            return linIssued < hw.numLinUnits && !readyLin.empty();
        };
        auto visit = [&](std::vector<ReadyEntry> &h) {
            std::pop_heap(h.begin(), h.end(), popsAfter);
            const i32 idx = h.back().second;
            h.pop_back();
            const Inst &inst = m.body[idx];
            if (!ports.tryIssue(makePortOp(inst, banks.bankOf), cycle,
                                true)) {
                deferred.push_back(idx);
                return;
            }
            const UnitClass unit = UnitClass(prep.unit[idx]);
            mulIssued += unit == UnitClass::Mul;
            linIssued += unit == UnitClass::Linear;
            bundle.instIdx.push_back(idx);
            sched.issueCycle[idx] = cycle;
            readyAt[inst.dst] = cycle + hw.latency(inst.op);
            const auto [ub, ue] = prep.usersOf(inst.dst);
            for (const i32 *u = ub; u != ue; ++u) {
                earliest[*u] = std::max(earliest[*u], readyAt[inst.dst]);
                if (--deps[*u] == 0)
                    heapPush({earliest[*u], *u});
            }
            --remaining;
        };

        const bool wantLong = longAffinity(cycle);
        while (wantLong && !full() && mulOpen())
            visit(readyMul);
        while (!full()) {
            const bool lin = linOpen();
            if (!lin && readyRest.empty())
                break;
            const bool takeRest =
                !lin || (!readyRest.empty() &&
                         popsAfter(readyLin.front(), readyRest.front()));
            visit(takeRest ? readyRest : readyLin);
        }
        while (!wantLong && !full() && mulOpen())
            visit(readyMul);

        for (i32 idx : deferred)
            pushReady(idx);
        deferred.clear();
        if (bundle.instIdx.empty())
            --usedBundles; // reference only keeps non-empty bundles
        ++cycle;
    }

    i64 done = 0;
    for (i32 out : m.outputs)
        done = std::max(done, readyAt[out]);
    sched.estimatedCycles = done;
    sched.bundles.resize(usedBundles);
}

void
allocateRegistersInto(const Module &m, const BankAssignment &banks,
                      const Schedule &sched, BackendScratch &scratch,
                      RegAssignment &ra)
{
    ra.regOf.assign(static_cast<size_t>(m.numValues), -1);
    ra.maxRegsPerBank.assign(static_cast<size_t>(banks.numBanks), 0);

    // Liveness in schedule order.
    std::vector<i64> &lastUse = scratch.lastUse;
    std::vector<i64> &defPos = scratch.defPos;
    lastUse.assign(static_cast<size_t>(m.numValues), -1);
    defPos.assign(static_cast<size_t>(m.numValues), -1);
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

    if (static_cast<int>(scratch.freeList.size()) < banks.numBanks)
        scratch.freeList.resize(static_cast<size_t>(banks.numBanks));
    for (int b = 0; b < banks.numBanks; ++b)
        scratch.freeList[static_cast<size_t>(b)].clear();
    std::vector<std::vector<i32>> &freeList = scratch.freeList;
    std::vector<i32> &nextReg = scratch.nextReg;
    nextReg.assign(static_cast<size_t>(banks.numBanks), 0);

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

    // Expiry buckets by lastUse position, counting-sorted: ascending
    // key, ascending value id within a key -- exactly the iteration
    // order of the reference std::map<i64, std::vector<i32>>.
    const size_t numBuckets = static_cast<size_t>(pos) + 1;
    std::vector<i32> &expiryStart = scratch.expiryStart;
    std::vector<i32> &expiryCursor = scratch.expiryCursor;
    std::vector<i32> &expiryList = scratch.expiryList;
    expiryStart.assign(numBuckets + 1, 0);
    for (i32 v = 0; v < m.numValues; ++v) {
        if (ra.regOf[v] >= 0)
            continue; // constants/inputs handled above
        if (lastUse[v] >= 0 && lastUse[v] <= pos)
            expiryStart[static_cast<size_t>(lastUse[v]) + 1]++;
    }
    for (size_t b = 0; b < numBuckets; ++b)
        expiryStart[b + 1] += expiryStart[b];
    expiryCursor.assign(expiryStart.begin(), expiryStart.end() - 1);
    expiryList.resize(static_cast<size_t>(expiryStart[numBuckets]));
    for (i32 v = 0; v < m.numValues; ++v) {
        if (ra.regOf[v] >= 0)
            continue;
        if (lastUse[v] >= 0 && lastUse[v] <= pos)
            expiryList[static_cast<size_t>(
                expiryCursor[static_cast<size_t>(lastUse[v])]++)] = v;
    }

    i64 freed = 0; // next expiry bucket to release
    pos = 0;
    for (const Bundle &b : sched.bundles) {
        while (freed < pos) {
            const size_t fb = static_cast<size_t>(freed);
            for (i32 i = expiryStart[fb]; i < expiryStart[fb + 1]; ++i) {
                const i32 v = expiryList[static_cast<size_t>(i)];
                if (ra.regOf[v] >= 0)
                    freeList[banks.bankOf[v]].push_back(ra.regOf[v]);
            }
            ++freed;
        }
        for (i32 idx : b.instIdx)
            allocate(m.body[idx].dst);
        ++pos;
    }
}

void
runBackendPoint(const Module &m, const TracePrep &prep,
                const PipelineModel &hw, bool listSchedule,
                BackendScratch &scratch, BackendPoint &out)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    assignBanksInto(m, hw, out.banks);
    out.bankallocSeconds = secondsSince(start);
    const auto tSched = Clock::now();
    scheduleModule(m, prep, out.banks, hw, listSchedule, scratch,
                   out.schedule);
    out.packschedSeconds = secondsSince(tSched);
    const auto tRegs = Clock::now();
    allocateRegistersInto(m, out.banks, out.schedule, scratch, out.regs);
    out.regallocSeconds = secondsSince(tRegs);
    const auto tEnc = Clock::now();
    const EncodingLayout layout =
        encodingLayout(out.banks, out.regs, out.schedule, hw);
    out.wordBits = layout.wordBits;
    out.imemBits = layout.imemBits();
    out.encodeSeconds = secondsSince(tEnc);
    out.seconds = secondsSince(start);
}

void
appendBackendStats(OptStats &stats, const BackendPoint &bp)
{
    const std::pair<const char *, double> stages[] = {
        {"bankalloc", bp.bankallocSeconds},
        {"packsched", bp.packschedSeconds},
        {"regalloc", bp.regallocSeconds},
        {"encode", bp.encodeSeconds},
    };
    for (const auto &[name, seconds] : stages) {
        PassStats &ps = ensurePassStats(stats, name, false);
        ps.invocations += 1;
        ps.seconds += seconds;
        stats.seconds += seconds;
    }
}

} // namespace finesse
