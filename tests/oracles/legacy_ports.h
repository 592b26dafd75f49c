/**
 * @file
 * Reference oracle of the structural-hazard tracker: the original
 * std::map-based tracker, with the same interface as the dense
 * PortTracker of compiler/ports.h. Both reference engines
 * (oracles.h) issue against it; test_backend_props and
 * bench/fig_backend check that they agree with the dense engines.
 */
#ifndef FINESSE_ORACLES_LEGACY_PORTS_H_
#define FINESSE_ORACLES_LEGACY_PORTS_H_

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "compiler/ports.h"

namespace finesse {

/**
 * Reference tracker: ordered-map reservation tables, one fresh pair of
 * std::maps per canIssueBundle call. Semantically identical to
 * PortTracker by construction.
 */
class LegacyPortTracker
{
  public:
    explicit LegacyPortTracker(const PipelineModel &hw) : hw_(hw) {}

    /** Check whether @p op can issue at @p cycle; optionally reserve. */
    bool
    tryIssue(const PortOp &op, i64 cycle, bool commit)
    {
        const UnitClass unit = unitOf(op.op);
        CycleUse &use = cycleUse_[cycle];
        if (use.total >= hw_.issueWidth)
            return false;
        if (unit == UnitClass::Mul && use.longOps >= 1)
            return false;
        if (unit == UnitClass::Linear && use.shortOps >= hw_.numLinUnits)
            return false;
        if (unit == UnitClass::Inv && use.invOps >= 1)
            return false;

        for (int i = 0; i < op.numReads; ++i) {
            int needed = 0;
            for (int j = 0; j < op.numReads; ++j)
                needed += op.readBanks[j] == op.readBanks[i];
            if (readsAt(cycle, op.readBanks[i]) + needed >
                hw_.readsPerBank) {
                return false;
            }
        }

        const i64 slot = writebackSlot(op, cycle);
        if (slot < 0)
            return false;

        if (commit) {
            use.total++;
            if (unit == UnitClass::Mul)
                use.longOps++;
            else if (unit == UnitClass::Linear)
                use.shortOps++;
            else if (unit == UnitClass::Inv)
                use.invOps++;
            for (int i = 0; i < op.numReads; ++i)
                readUse_[{cycle, op.readBanks[i]}]++;
            writeUse_[{slot, op.dstBank}]++;
            maxFifoDefer_ = std::max(
                maxFifoDefer_, slot - (cycle + hw_.latency(op.op)));
        }
        return true;
    }

    /** Aggregate feasibility of a whole bundle at @p cycle. */
    bool
    canIssueBundle(const std::vector<PortOp> &ops, i64 cycle)
    {
        if (static_cast<int>(ops.size()) > hw_.issueWidth)
            return false;
        int longOps = 0, shortOps = 0, invOps = 0;
        std::map<i32, int> reads;
        std::map<std::pair<i64, i32>, int> writes;
        const CycleUse &use = cycleUse_[cycle];
        if (use.total + static_cast<int>(ops.size()) > hw_.issueWidth)
            return false;
        for (const PortOp &op : ops) {
            switch (unitOf(op.op)) {
              case UnitClass::Mul:
                ++longOps;
                break;
              case UnitClass::Linear:
                ++shortOps;
                break;
              case UnitClass::Inv:
                ++invOps;
                break;
              case UnitClass::None:
                break;
            }
            for (int i = 0; i < op.numReads; ++i)
                reads[op.readBanks[i]]++;
            // Write-back feasibility considering this bundle's writes.
            const i64 wb = cycle + hw_.latency(op.op);
            const int window = hw_.writebackFifo ? hw_.fifoDepth : 0;
            i64 slot = -1;
            for (i64 c = wb; c <= wb + window; ++c) {
                if (writesAt(c, op.dstBank) + writes[{c, op.dstBank}] <
                    hw_.writesPerBank) {
                    slot = c;
                    break;
                }
            }
            if (slot < 0)
                return false;
            writes[{slot, op.dstBank}]++;
        }
        if (use.longOps + longOps > 1)
            return false;
        if (use.shortOps + shortOps > hw_.numLinUnits)
            return false;
        if (use.invOps + invOps > 1)
            return false;
        for (auto &[bank, cnt] : reads) {
            if (readsAt(cycle, bank) + cnt > hw_.readsPerBank)
                return false;
        }
        return true;
    }

    /** Commit a whole (pre-checked) bundle. */
    void
    commitBundle(const std::vector<PortOp> &ops, i64 cycle)
    {
        for (const PortOp &op : ops) {
            const bool ok = tryIssue(op, cycle, true);
            FINESSE_CHECK(ok, "bundle commit failed after check");
        }
    }

    i64 maxFifoDefer() const { return maxFifoDefer_; }

  private:
    struct CycleUse
    {
        int total = 0, longOps = 0, shortOps = 0, invOps = 0;
    };

    int
    readsAt(i64 cycle, i32 bank) const
    {
        auto it = readUse_.find({cycle, bank});
        return it == readUse_.end() ? 0 : it->second;
    }

    int
    writesAt(i64 cycle, i32 bank) const
    {
        auto it = writeUse_.find({cycle, bank});
        return it == writeUse_.end() ? 0 : it->second;
    }

    i64
    writebackSlot(const PortOp &op, i64 cycle) const
    {
        const i64 wb = cycle + hw_.latency(op.op);
        const int window = hw_.writebackFifo ? hw_.fifoDepth : 0;
        for (i64 c = wb; c <= wb + window; ++c) {
            if (writesAt(c, op.dstBank) < hw_.writesPerBank)
                return c;
        }
        return -1;
    }

    const PipelineModel &hw_;
    std::map<i64, CycleUse> cycleUse_;
    std::map<std::pair<i64, i32>, int> readUse_;
    std::map<std::pair<i64, i32>, int> writeUse_;
    i64 maxFifoDefer_ = 0;
};

} // namespace finesse

#endif // FINESSE_ORACLES_LEGACY_PORTS_H_
