/**
 * @file
 * Shared structural-hazard tracker: per-cycle unit usage, register-bank
 * read ports, and the write-back reservation table with optional FIFO
 * deferral. Used by both the scheduler (to build feasible bundles) and
 * the cycle-accurate simulator (as the timing ground truth), so the
 * two views of the pipeline model can never diverge.
 *
 * PortTracker keeps dense ring-buffer state sized from the pipeline
 * model -- one CycleUse slot and one read/write counter row per cycle
 * of the reservation window (max op latency + FIFO-defer horizon) --
 * with lazy per-slot invalidation, so an issue attempt costs a handful
 * of array indexes instead of ordered-map lookups. It is resettable in
 * place for reuse across the backend runs of a sweep (no
 * reallocation). The ordered-map reference tracker it is
 * identity-tested against lives with the test oracles (tests/oracles/).
 *
 * Correctness of the ring buffer relies on the drivers' probe cycles
 * being monotonically non-decreasing (true for the init scheduler,
 * the list scheduler and the simulator replay loop): a slot whose tag
 * mismatches the probed cycle can only hold data from a cycle at
 * least one full window in the past, never the future.
 */
#ifndef FINESSE_COMPILER_PORTS_H_
#define FINESSE_COMPILER_PORTS_H_

#include <algorithm>
#include <vector>

#include "hwmodel/pipeline.h"

namespace finesse {

/** One op with its resolved bank usage. */
struct PortOp
{
    Op op;
    i32 readBanks[2] = {-1, -1};
    int numReads = 0;
    i32 dstBank = 0;
};

/** Dense, resettable hazard tracker (see file header). */
class PortTracker
{
  public:
    PortTracker() = default;

    explicit PortTracker(const PipelineModel &hw) { reset(hw); }

    /**
     * (Re)bind to a pipeline model and clear all reservations. Buffers
     * are resized only when the window/bank geometry grows, so a
     * scratch-resident tracker is reused allocation-free across the
     * points of a hardware sweep.
     */
    void
    reset(const PipelineModel &hw)
    {
        hw_ = &hw;
        // In size_t, so the sum cannot overflow even for a model that
        // validate() has not bounded.
        const auto maxLat = static_cast<size_t>(
            std::max({hw.longLat, hw.shortLat, hw.invLat, 1}));
        const size_t fifoWindow =
            hw.writebackFifo ? static_cast<size_t>(hw.fifoDepth) : 0;
        window_ = maxLat + fifoWindow + 1;
        banks_ = static_cast<size_t>(hw.numBanks);
        use_.assign(window_, CycleSlot{});
        readTag_.assign(window_, -1);
        writeTag_.assign(window_, -1);
        readCnt_.resize(window_ * banks_);  // rows gated by tags
        writeCnt_.resize(window_ * banks_); // (cleared on first touch)
        bundleReads_.assign(banks_, 0);
        bundleWrites_.assign(window_ * banks_, 0);
        touchedBundleReads_.clear();
        touchedBundleWrites_.clear();
        maxFifoDefer_ = 0;
    }

    /** Check whether @p op can issue at @p cycle; optionally reserve. */
    bool
    tryIssue(const PortOp &op, i64 cycle, bool commit)
    {
        const UnitClass unit = unitOf(op.op);
        const CycleSlot use = useAt(cycle);
        if (use.total >= hw_->issueWidth)
            return false;
        if (unit == UnitClass::Mul && use.longOps >= 1)
            return false;
        if (unit == UnitClass::Linear && use.shortOps >= hw_->numLinUnits)
            return false;
        if (unit == UnitClass::Inv && use.invOps >= 1)
            return false;

        for (int i = 0; i < op.numReads; ++i) {
            int needed = 0;
            for (int j = 0; j < op.numReads; ++j)
                needed += op.readBanks[j] == op.readBanks[i];
            if (readsAt(cycle, op.readBanks[i]) + needed >
                hw_->readsPerBank) {
                return false;
            }
        }

        const i64 slot = writebackSlot(op, cycle);
        if (slot < 0)
            return false;

        if (commit) {
            CycleSlot &u = touchUse(cycle);
            u.total++;
            if (unit == UnitClass::Mul)
                u.longOps++;
            else if (unit == UnitClass::Linear)
                u.shortOps++;
            else if (unit == UnitClass::Inv)
                u.invOps++;
            for (int i = 0; i < op.numReads; ++i)
                ++readRow(cycle)[op.readBanks[i]];
            ++writeRow(slot)[op.dstBank];
            maxFifoDefer_ = std::max(
                maxFifoDefer_, slot - (cycle + hw_->latency(op.op)));
        }
        return true;
    }

    /**
     * Aggregate feasibility of a whole bundle at @p cycle. The
     * per-call accumulators live in member scratch (cleared from a
     * touched-entry list, so a call costs O(bundle), not O(window)).
     */
    bool
    canIssueBundle(const std::vector<PortOp> &ops, i64 cycle)
    {
        if (static_cast<int>(ops.size()) > hw_->issueWidth)
            return false;
        for (i32 bank : touchedBundleReads_)
            bundleReads_[static_cast<size_t>(bank)] = 0;
        touchedBundleReads_.clear();
        for (size_t f : touchedBundleWrites_)
            bundleWrites_[f] = 0;
        touchedBundleWrites_.clear();

        int longOps = 0, shortOps = 0, invOps = 0;
        const CycleSlot use = useAt(cycle);
        if (use.total + static_cast<int>(ops.size()) > hw_->issueWidth)
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
            for (int i = 0; i < op.numReads; ++i) {
                const auto bank = static_cast<size_t>(op.readBanks[i]);
                if (bundleReads_[bank]++ == 0)
                    touchedBundleReads_.push_back(op.readBanks[i]);
            }
            // Write-back feasibility considering this bundle's writes.
            const i64 wb = cycle + hw_->latency(op.op);
            const int window = hw_->writebackFifo ? hw_->fifoDepth : 0;
            i64 slot = -1;
            for (i64 c = wb; c <= wb + window; ++c) {
                if (writesAt(c, op.dstBank) +
                        bundleWrites_[flat(c, op.dstBank)] <
                    hw_->writesPerBank) {
                    slot = c;
                    break;
                }
            }
            if (slot < 0)
                return false;
            const size_t f = flat(slot, op.dstBank);
            if (bundleWrites_[f]++ == 0)
                touchedBundleWrites_.push_back(f);
        }
        if (use.longOps + longOps > 1)
            return false;
        if (use.shortOps + shortOps > hw_->numLinUnits)
            return false;
        if (use.invOps + invOps > 1)
            return false;
        for (i32 bank : touchedBundleReads_) {
            if (readsAt(cycle, bank) +
                    bundleReads_[static_cast<size_t>(bank)] >
                hw_->readsPerBank) {
                return false;
            }
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
    struct CycleSlot
    {
        i64 cycle = -1; ///< which cycle this slot currently represents
        int total = 0, longOps = 0, shortOps = 0, invOps = 0;
    };

    size_t idx(i64 cycle) const
    {
        return static_cast<size_t>(cycle) % window_;
    }

    size_t flat(i64 cycle, i32 bank) const
    {
        return idx(cycle) * banks_ + static_cast<size_t>(bank);
    }

    CycleSlot
    useAt(i64 cycle) const
    {
        const CycleSlot &s = use_[idx(cycle)];
        if (s.cycle == cycle)
            return s;
        CycleSlot fresh;
        fresh.cycle = cycle;
        return fresh;
    }

    CycleSlot &
    touchUse(i64 cycle)
    {
        CycleSlot &s = use_[idx(cycle)];
        if (s.cycle != cycle) {
            s = CycleSlot{};
            s.cycle = cycle;
        }
        return s;
    }

    int
    readsAt(i64 cycle, i32 bank) const
    {
        const size_t w = idx(cycle);
        return readTag_[w] == cycle
                   ? readCnt_[w * banks_ + static_cast<size_t>(bank)]
                   : 0;
    }

    int
    writesAt(i64 cycle, i32 bank) const
    {
        const size_t w = idx(cycle);
        return writeTag_[w] == cycle
                   ? writeCnt_[w * banks_ + static_cast<size_t>(bank)]
                   : 0;
    }

    /** Row of read counters for @p cycle, cleared on first touch. */
    int *
    readRow(i64 cycle)
    {
        const size_t w = idx(cycle);
        if (readTag_[w] != cycle) {
            std::fill_n(readCnt_.begin() +
                            static_cast<ptrdiff_t>(w * banks_),
                        banks_, 0);
            readTag_[w] = cycle;
        }
        return readCnt_.data() + w * banks_;
    }

    int *
    writeRow(i64 cycle)
    {
        const size_t w = idx(cycle);
        if (writeTag_[w] != cycle) {
            std::fill_n(writeCnt_.begin() +
                            static_cast<ptrdiff_t>(w * banks_),
                        banks_, 0);
            writeTag_[w] = cycle;
        }
        return writeCnt_.data() + w * banks_;
    }

    i64
    writebackSlot(const PortOp &op, i64 cycle) const
    {
        const i64 wb = cycle + hw_->latency(op.op);
        const int window = hw_->writebackFifo ? hw_->fifoDepth : 0;
        for (i64 c = wb; c <= wb + window; ++c) {
            if (writesAt(c, op.dstBank) < hw_->writesPerBank)
                return c;
        }
        return -1;
    }

    const PipelineModel *hw_ = nullptr;
    size_t window_ = 0;
    size_t banks_ = 0;
    std::vector<CycleSlot> use_;
    std::vector<i64> readTag_, writeTag_;
    std::vector<int> readCnt_, writeCnt_;
    // canIssueBundle per-call accumulators (reset via touched lists).
    std::vector<int> bundleReads_;
    std::vector<int> bundleWrites_;
    std::vector<i32> touchedBundleReads_;
    std::vector<size_t> touchedBundleWrites_;
    i64 maxFifoDefer_ = 0;
};

/** Build the PortOp view of one instruction. */
inline PortOp
makePortOp(const Inst &inst, const std::vector<i32> &bankOf)
{
    PortOp op;
    op.op = inst.op;
    if (arity(inst.op) >= 1)
        op.readBanks[op.numReads++] = bankOf[inst.a];
    if (arity(inst.op) >= 2)
        op.readBanks[op.numReads++] = bankOf[inst.b];
    op.dstBank = bankOf[inst.dst];
    return op;
}

} // namespace finesse

#endif // FINESSE_COMPILER_PORTS_H_
