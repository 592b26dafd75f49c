/**
 * @file
 * Single-build OptContext: the worklist front-end optimizer.
 *
 * The legacy engine (RewritePass::run in compiler/passes.cpp) re-walks
 * the entire unrolled SSA body on every sweep of every pass and
 * rebuilds the constant-pool maps from scratch each time. OptContext
 * is built ONCE per front-end group run and shared by every pass in
 * the group:
 *
 *  - dense per-value use counts plus a CSR def-use table (overflow
 *    chains absorb uses that migrate between values, so nothing is
 *    reallocated mid-run),
 *  - a path-compressed replacement (union-find) table for elided
 *    values,
 *  - a hash-interned constant pool (one unordered_map<BigInt, id>
 *    for the whole run),
 *  - one dirty bitset per pass: a scan visits only instructions whose
 *    operands or opcode changed since that pass last saw them, in
 *    program order, so a converged round costs a word-scan instead of
 *    a body re-walk.
 *
 * Elided instructions are tombstoned in place and their uses forwarded
 * eagerly; the body and constant pool are compacted exactly once at
 * group end (Module::compact). Dead-code elimination is engine-native:
 * a descending scan over defs whose use count dropped to zero,
 * mirroring the reference backward-liveness sweep.
 *
 * The engine is event-equivalent to the sweep engine by construction
 * (a clean instruction's visit is a no-op, so skipping it changes
 * nothing): final modules are byte-identical and per-pass PassStats
 * deltas match for any `--passes` subset. bench/fig_opt and
 * tests/test_optcontext enforce this against runFrontendPipelineSweep.
 */
#ifndef FINESSE_COMPILER_OPTCONTEXT_H_
#define FINESSE_COMPILER_OPTCONTEXT_H_

#include <unordered_map>
#include <vector>

#include "compiler/pipeline.h"
#include "ir/ir.h"

namespace finesse {

class OptContext;

/**
 * Path-compressed lookup in a replacement (union-find) table:
 * rep[id] is the replacing value id or -1 for a root. Shared by both
 * front-end engines so their chain semantics cannot diverge.
 */
inline i32
resolveRep(std::vector<i32> &rep, i32 id)
{
    if (id < 0 || rep[static_cast<size_t>(id)] < 0)
        return id;
    i32 root = id;
    while (rep[static_cast<size_t>(root)] >= 0)
        root = rep[static_cast<size_t>(root)];
    while (rep[static_cast<size_t>(id)] >= 0) {
        const i32 next = rep[static_cast<size_t>(id)];
        rep[static_cast<size_t>(id)] = root;
        id = next;
    }
    return root;
}

/**
 * Constant-tracking environment shared by both front-end engines, so
 * each pass states its rewrite rules exactly once (byte-identity of
 * the two engines starts with literally shared rules).
 */
class RewriteEnv
{
  public:
    virtual ~RewriteEnv() = default;

    /**
     * Pool value of @p id, nullptr when it is not a constant. The
     * pointer is only valid until the next internConst() call (the
     * worklist engine hands out pointers into the module's constant
     * vector, which interning can reallocate) -- rules must finish
     * reading operand constants before they intern the result.
     */
    virtual const BigInt *constOf(i32 id) const = 0;

    /** Intern @p v into the constant pool, reusing an existing id. */
    virtual i32 internConst(const BigInt &v) = 0;

    virtual const BigInt &modulus() const = 0;
};

/** Worklist hook implemented by the rewriting front-end passes. */
class InstRewriter
{
  public:
    virtual ~InstRewriter() = default;

    /** Called once per group run, before any scan. */
    virtual void beginRun(OptContext &) {}

    /**
     * Try to simplify the instruction at body index @p idx. Operands
     * arrive fully resolved; the pass may rewrite op/operands in
     * place. Returns a replacement value id to elide the instruction,
     * -1 to keep it.
     */
    virtual i32 simplifyAt(OptContext &ctx, Inst &inst, size_t idx) = 0;
};

/** Shared single-build state of one front-end group run. */
class OptContext final : public RewriteEnv
{
  public:
    /** Builds every table in one pass over @p m. */
    OptContext(Module &m, size_t rewriterSlots);

    Module &module() { return *m_; }

    // RewriteEnv --------------------------------------------------------
    const BigInt *constOf(i32 id) const override;
    i32 internConst(const BigInt &v) override;
    const BigInt &modulus() const override { return m_->p; }

    // Queries (used by the incremental GVN) -----------------------------
    const Inst &instAt(size_t idx) const { return m_->body[idx]; }
    bool isAlive(size_t idx) const { return alive_[idx] != 0; }

    /**
     * Resolve @p id through the replacement table with path
     * compression. Stored operands are forwarded eagerly, so chains
     * only arise from replacement targets that were themselves elided
     * later; resolve() keeps those walks amortized O(1).
     */
    i32 resolve(i32 id);

    /**
     * Tombstone body[idx] in favor of existing value @p replacement:
     * records the replacement, eagerly forwards every use (instruction
     * operands and module outputs) and marks the affected instructions
     * dirty for every pass. Attributed to the scan in progress.
     */
    void elideInst(size_t idx, i32 replacement);

    /** Outcome of one pass scan. */
    struct ScanResult
    {
        bool changed = false;      ///< any elision/rewrite/removal
        size_t instsRemoved = 0;   ///< body instructions tombstoned
    };

    /** Ascending scan of @p rw's dirty instructions. */
    ScanResult scanRewriter(size_t slot, InstRewriter &rw);

    /**
     * Dead-code scan: descending walk of defs whose use count hit
     * zero (cascading), then a purge of unreferenced constant-pool
     * entries. Matches the reference backward-liveness DCE sweep.
     */
    ScanResult scanDce();

    /** One-shot tombstone compaction; call exactly once, at group end. */
    size_t compact();

  private:
    void decUse(i32 id);
    void addUse(i32 id, i32 user);
    void forwardUses(i32 from, i32 to);
    void applyRewrite(size_t idx, const Inst &before);
    void markDirtyAllSlots(size_t idx);

    Module *m_;
    size_t bodySize_;

    std::vector<u8> alive_;      ///< body tombstones
    std::vector<u8> constAlive_; ///< constant-pool tombstones

    // Dense per-value-id tables (grow only via internConst).
    std::vector<i32> useCount_; ///< uses from alive insts + outputs
    std::vector<i32> defOf_;    ///< defining body index, -1 for others
    std::vector<i32> rep_;      ///< union-find replacement, -1 = root
    std::vector<i32> constIdx_; ///< index into constants, -1 otherwise

    // Def-use: CSR pool sized from the initial operands, plus
    // per-value overflow chains for uses that migrate to a new value
    // (no reallocation of the CSR mid-run). Entries are hints: stale
    // ones (dead user, operand moved on) are skipped and dropped when
    // the value is forwarded. user >= 0 is a body index, user < 0
    // encodes module output slot -(user + 1).
    std::vector<i32> useStart_; ///< CSR offsets (initial ids + 1)
    std::vector<i32> useLen_;   ///< live CSR prefix per value
    std::vector<i32> useEntries_;
    struct OverflowUse
    {
        i32 user;
        i32 next;
    };
    std::vector<i32> ovHead_; ///< per-value overflow chain head
    std::vector<OverflowUse> ovPool_;
    size_t csrValues_; ///< ids covered by the CSR (initial numValues)

    // One dirty bitset per rewriter slot + one for dce; all-ones at
    // build so round 1 replicates the full sweeps of the reference
    // engine.
    std::vector<std::vector<u64>> slotDirty_;
    std::vector<u64> dceDirty_;
    std::vector<i32> constCandidates_; ///< ids to re-check at dce time

    std::unordered_map<BigInt, i32, BigIntHash> internMap_;

    // Per-scan accounting (reset by each scan* call).
    size_t scanRemoved_ = 0;
    size_t scanRewrites_ = 0;
};

/**
 * Drive a front-end pass group over @p m with the
 * worklist engine: rounds of per-pass scans until a clean round or
 * PassManager::kMaxFixpointIters, per-pass PassStats accounting
 * identical to the sweep engine's, then one compaction. Returns the
 * number of rounds executed.
 */
int runFrontendWorklist(Module &m, OptStats &stats,
                        const std::vector<Pass *> &group);

} // namespace finesse

#endif // FINESSE_COMPILER_OPTCONTEXT_H_
