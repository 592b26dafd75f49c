/**
 * @file
 * The five IROpt front-end passes: constant folding, zero/one
 * propagation, strength reduction, global value numbering and dead
 * code elimination.
 *
 * Each rewriting pass states its simplification rules exactly once,
 * against the engine-neutral RewriteEnv (compiler/optcontext.h), and
 * is driven by either engine:
 *
 *  - the single-build OptContext worklist engine (the default --
 *    PassManager::run), via InstRewriter::simplifyAt;
 *  - the legacy sweep engine kept here as the reference
 *    implementation (RewritePass::run, PassManager::runSweep): every
 *    sweep re-walks the body, rebuilds the constant maps and resolves
 *    operands through a per-sweep replacement table.
 *
 * optimizeModule() is the classic one-call wrapper over the standard
 * front-end pipeline.
 */
#include "compiler/passes.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "compiler/optcontext.h"
#include "compiler/pipeline.h"
#include "support/common.h"

namespace finesse {

namespace {

/** Hash key for value numbering. */
struct VnKey
{
    Op op;
    i32 a, b;

    bool
    operator==(const VnKey &o) const
    {
        return op == o.op && a == o.a && b == o.b;
    }
};

struct VnKeyHash
{
    size_t
    operator()(const VnKey &k) const
    {
        return std::hash<u64>()((static_cast<u64>(k.op) << 56) ^
                                (static_cast<u64>(static_cast<u32>(k.a))
                                 << 28) ^
                                static_cast<u64>(static_cast<u32>(k.b)));
    }
};

/** Commutativity canonicalization shared by both GVN engines. */
VnKey
canonicalVnKey(const Inst &inst)
{
    VnKey key{inst.op, inst.a, inst.b};
    if (inst.op == Op::Add || inst.op == Op::Mul) {
        if (key.a > key.b)
            std::swap(key.a, key.b);
    }
    return key;
}

/**
 * Legacy sweep engine shared by the rewriting passes, and the
 * reference the OptContext worklist engine is validated against. One
 * sweep walks the body in order, resolves operands through the
 * replacements made earlier in the same sweep (path-compressed
 * union-find), and asks the concrete pass to simplify each
 * instruction: a non-negative return elides the instruction in favor
 * of an existing value id; simplify() may also rewrite the op in
 * place (strength reduction). The per-sweep constant maps implement
 * RewriteEnv for the shared rules.
 */
class RewritePass : public Pass, public InstRewriter, public RewriteEnv
{
  public:
    InstRewriter *instRewriter() override { return this; }

    bool
    run(Module &m) override
    {
        m_ = &m;
        rep_.assign(static_cast<size_t>(m.numValues), -1);
        constVal_.clear();
        constIds_.clear();
        for (const auto &c : m.constants) {
            constVal_[c.id] = c.value;
            constIds_[c.value] = c.id;
        }
        beginSweep(m);

        bool changed = false;
        std::vector<Inst> newBody;
        newBody.reserve(m.body.size());
        for (const Inst &raw : m.body) {
            Inst inst = raw;
            forEachOperand(inst, [&](i32 &x) { x = resolve(x); });

            const i32 replacement = simplify(*this, inst);
            if (replacement >= 0) {
                rep_[inst.dst] = replacement;
                changed = true;
                continue;
            }
            changed |= inst.op != raw.op;
            newBody.push_back(inst);
        }
        for (auto &out : m.outputs)
            out = resolve(out);
        m.body = std::move(newBody);
        m_ = nullptr;
        return changed;
    }

    // Worklist-engine hook: same rules, OptContext as the environment.
    i32
    simplifyAt(OptContext &ctx, Inst &inst, size_t) override
    {
        return simplify(ctx, inst);
    }

    // RewriteEnv over the per-sweep maps (legacy engine).
    const BigInt *
    constOf(i32 id) const override
    {
        auto it = constVal_.find(id);
        return it == constVal_.end() ? nullptr : &it->second;
    }

    i32
    internConst(const BigInt &v) override
    {
        auto it = constIds_.find(v);
        if (it != constIds_.end())
            return it->second;
        const i32 id = m_->numValues++;
        rep_.push_back(-1);
        m_->constants.push_back({id, v});
        constVal_[id] = v;
        constIds_[v] = id;
        return id;
    }

    const BigInt &modulus() const override { return m_->p; }

  protected:
    /** Per-sweep setup hook (e.g. clearing the GVN table). */
    virtual void beginSweep(Module &) {}

    /**
     * Try to simplify @p inst (which may be rewritten in place) using
     * @p env for constant queries/interning. Returns a replacement
     * value id when the instruction can be elided entirely, -1
     * otherwise. Shared verbatim by both engines.
     */
    virtual i32 simplify(RewriteEnv &env, Inst &inst) = 0;

    /** Path-compressed replacement lookup (amortized O(1) chains). */
    i32 resolve(i32 id) { return resolveRep(rep_, id); }

  private:
    Module *m_ = nullptr;
    std::vector<i32> rep_;
    std::unordered_map<i32, BigInt> constVal_;
    std::map<BigInt, i32> constIds_;
};

/** constfold: evaluate instructions whose operands are all constant. */
class ConstFoldPass final : public RewritePass
{
  public:
    std::string_view name() const override { return "constfold"; }

  protected:
    i32
    simplify(RewriteEnv &env, Inst &inst) override
    {
        const int n = arity(inst.op);
        const BigInt *ca = n >= 1 ? env.constOf(inst.a) : nullptr;
        const BigInt *cb = n >= 2 ? env.constOf(inst.b) : nullptr;
        if (!ca || (n >= 2 && !cb))
            return -1;

        const BigInt &p = env.modulus();
        switch (inst.op) {
          case Op::Add:
            return env.internConst((*ca + *cb).mod(p));
          case Op::Sub:
            return env.internConst((*ca - *cb).mod(p));
          case Op::Mul:
            return env.internConst((*ca * *cb).mod(p));
          case Op::Sqr:
            return env.internConst((*ca * *ca).mod(p));
          case Op::Neg:
            return env.internConst((-*ca).mod(p));
          case Op::Dbl:
            return env.internConst((*ca + *ca).mod(p));
          case Op::Tpl:
            return env.internConst((*ca + *ca + *ca).mod(p));
          case Op::Inv:
            return env.internConst(ca->isZero() ? BigInt()
                                                : ca->invMod(p));
          case Op::Cvt:
          case Op::Icv:
          case Op::Nop:
            return -1;
        }
        return -1;
    }
};

/**
 * zerooneprop: algebraic identities around the ring units -- x+0, x-0,
 * x*1, x*0, x-x and 0-x. Folds the structural zeros and ones the trace
 * starts from, such as the Miller accumulator's initial 1 (Table 7
 * discussion); the engine already multiplies lines sparsely.
 */
class ZeroOnePropPass final : public RewritePass
{
  public:
    std::string_view name() const override { return "zerooneprop"; }

  protected:
    i32
    simplify(RewriteEnv &env, Inst &inst) override
    {
        const int n = arity(inst.op);
        const BigInt *ca = n >= 1 ? env.constOf(inst.a) : nullptr;
        const BigInt *cb = n >= 2 ? env.constOf(inst.b) : nullptr;
        static const BigInt one(u64{1});

        switch (inst.op) {
          case Op::Add:
            if (ca && ca->isZero())
                return inst.b;
            if (cb && cb->isZero())
                return inst.a;
            return -1;
          case Op::Sub:
            if (cb && cb->isZero())
                return inst.a;
            if (inst.a == inst.b)
                return env.internConst(BigInt());
            if (ca && ca->isZero()) {
                inst.op = Op::Neg;
                inst.a = inst.b;
                inst.b = -1;
            }
            return -1;
          case Op::Mul:
            if ((ca && ca->isZero()) || (cb && cb->isZero()))
                return env.internConst(BigInt());
            if (ca && *ca == one)
                return inst.b;
            if (cb && *cb == one)
                return inst.a;
            return -1;
          default:
            return -1;
        }
    }
};

/**
 * strengthreduce: demote Long-unit multiplications to cheaper forms --
 * mul by 2/3/p-1 -> DBL/TPL/NEG, mul(x, x) -> SQR, add(x, x) -> DBL.
 */
class StrengthReducePass final : public RewritePass
{
  public:
    std::string_view name() const override { return "strengthreduce"; }

    void
    beginRun(OptContext &ctx) override
    {
        pm1_ = ctx.modulus() - BigInt(u64{1});
    }

  protected:
    void
    beginSweep(Module &m) override
    {
        pm1_ = m.p - BigInt(u64{1});
    }

    i32
    simplify(RewriteEnv &env, Inst &inst) override
    {
        const int n = arity(inst.op);
        const BigInt *ca = n >= 1 ? env.constOf(inst.a) : nullptr;
        const BigInt *cb = n >= 2 ? env.constOf(inst.b) : nullptr;
        static const BigInt two(u64{2});
        static const BigInt three(u64{3});

        switch (inst.op) {
          case Op::Add:
            if (inst.a == inst.b) {
                inst.op = Op::Dbl;
                inst.b = -1;
            }
            return -1;
          case Op::Mul: {
            auto reduce = [&](const BigInt &c, i32 other) {
                if (c == two) {
                    inst.op = Op::Dbl;
                    inst.a = other;
                    inst.b = -1;
                    return true;
                }
                if (c == three) {
                    inst.op = Op::Tpl;
                    inst.a = other;
                    inst.b = -1;
                    return true;
                }
                if (c == pm1_) {
                    inst.op = Op::Neg;
                    inst.a = other;
                    inst.b = -1;
                    return true;
                }
                return false;
            };
            if (ca && reduce(*ca, inst.b))
                return -1;
            if (cb && reduce(*cb, inst.a))
                return -1;
            if (inst.a == inst.b) {
                inst.op = Op::Sqr;
                inst.b = -1;
            }
            return -1;
          }
          default:
            return -1;
        }
    }

  private:
    BigInt pm1_; ///< p - 1, cached once per sweep/run
};

/**
 * gvn: global value numbering with commutativity canonicalization.
 *
 * Legacy engine: the table is rebuilt every sweep in program order, so
 * the leader of a key is its earliest alive occurrence. Worklist
 * engine: one persistent table for the whole run, validated lazily --
 * an entry whose instruction died or changed key is overwritten, and a
 * dirty instruction whose key now collides with a LATER leader takes
 * the leadership over (the later duplicate is elided), preserving the
 * earliest-occurrence invariant and hence byte-identical results.
 */
class GvnPass final : public RewritePass
{
  public:
    std::string_view name() const override { return "gvn"; }

    void
    beginRun(OptContext &) override
    {
        wl_.clear();
    }

    i32
    simplifyAt(OptContext &ctx, Inst &inst, size_t idx) override
    {
        const VnKey key = canonicalVnKey(inst);
        auto [it, inserted] =
            wl_.try_emplace(key, static_cast<i32>(idx));
        if (inserted)
            return -1;
        const size_t leader = static_cast<size_t>(it->second);
        if (leader == idx)
            return -1;
        if (!ctx.isAlive(leader) ||
            !(canonicalVnKey(ctx.instAt(leader)) == key)) {
            it->second = static_cast<i32>(idx); // stale entry
            return -1;
        }
        if (leader < idx)
            return ctx.instAt(leader).dst;
        // This instruction is the earlier occurrence: it takes the
        // leadership and the previous (later) holder is elided --
        // exactly what the reference sweep does when it reaches it.
        const i32 mine = inst.dst;
        it->second = static_cast<i32>(idx);
        ctx.elideInst(leader, mine);
        return -1;
    }

  protected:
    void beginSweep(Module &) override { vn_.clear(); }

    i32
    simplify(RewriteEnv &, Inst &inst) override
    {
        const VnKey key = canonicalVnKey(inst);
        auto it = vn_.find(key);
        if (it != vn_.end())
            return it->second;
        vn_.emplace(key, inst.dst);
        return -1;
    }

  private:
    std::unordered_map<VnKey, i32, VnKeyHash> vn_; ///< per sweep
    std::unordered_map<VnKey, i32, VnKeyHash> wl_; ///< per group run
};

/**
 * dce: backward liveness from the outputs; drops dead instructions and
 * now-unreferenced constant-pool entries. The worklist engine
 * implements this natively on its use-count table (OptContext::scanDce),
 * so no InstRewriter hook is exposed; this sweep is the reference.
 */
class DcePass final : public Pass
{
  public:
    std::string_view name() const override { return "dce"; }

    bool
    run(Module &m) override
    {
        std::vector<u8> live(static_cast<size_t>(m.numValues), 0);
        for (i32 out : m.outputs)
            live[static_cast<size_t>(out)] = 1;
        std::vector<Inst> kept;
        kept.reserve(m.body.size());
        for (size_t i = m.body.size(); i-- > 0;) {
            const Inst &inst = m.body[i];
            if (!live[static_cast<size_t>(inst.dst)])
                continue;
            forEachOperand(inst, [&](const i32 &x) {
                live[static_cast<size_t>(x)] = 1;
            });
            kept.push_back(inst);
        }
        std::reverse(kept.begin(), kept.end());

        std::vector<ConstEntry> usedConsts;
        for (const auto &c : m.constants) {
            if (live[static_cast<size_t>(c.id)])
                usedConsts.push_back(c);
        }

        const bool changed = kept.size() != m.body.size() ||
                             usedConsts.size() != m.constants.size();
        m.body = std::move(kept);
        m.constants = std::move(usedConsts);
        return changed;
    }
};

} // namespace

std::unique_ptr<Pass>
makeFrontendPass(const std::string &name)
{
    if (name == "constfold")
        return std::make_unique<ConstFoldPass>();
    if (name == "zerooneprop")
        return std::make_unique<ZeroOnePropPass>();
    if (name == "strengthreduce")
        return std::make_unique<StrengthReducePass>();
    if (name == "gvn")
        return std::make_unique<GvnPass>();
    if (name == "dce")
        return std::make_unique<DcePass>();
    return nullptr;
}

OptStats
optimizeModule(Module &m)
{
    return runFrontendPipeline(m, frontendPassNames());
}

} // namespace finesse
