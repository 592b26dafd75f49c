/**
 * @file
 * OptContext implementation: single build of the use-count / def-use /
 * replacement / constant-pool tables, dirty-bitset pass scans, eager
 * use forwarding, engine-native DCE and the one-shot compaction, plus
 * the worklist fixpoint driver used by PassManager for front-end
 * groups.
 */
#include "compiler/optcontext.h"

#include <bit>
#include <chrono>

#include "support/common.h"

namespace finesse {

namespace {

using Clock = std::chrono::steady_clock;

/** Output slot k <-> negative user encoding in the def-use table. */
inline i32
encodeOutputUser(size_t slot)
{
    return -static_cast<i32>(slot) - 1;
}

inline size_t
decodeOutputUser(i32 user)
{
    return static_cast<size_t>(-user - 1);
}

} // namespace

OptContext::OptContext(Module &m, size_t rewriterSlots)
    : m_(&m), bodySize_(m.body.size())
{
    const size_t nv = static_cast<size_t>(m.numValues);
    alive_.assign(bodySize_, 1);
    constAlive_.assign(m.constants.size(), 1);

    // Reserve headroom so the interning growth path rarely reallocates
    // (constant folding typically adds a few percent of new ids).
    const size_t slack = nv + nv / 8 + 16;
    useCount_.reserve(slack);
    defOf_.reserve(slack);
    rep_.reserve(slack);
    constIdx_.reserve(slack);
    ovHead_.reserve(slack);
    useCount_.assign(nv, 0);
    defOf_.assign(nv, -1);
    rep_.assign(nv, -1);
    constIdx_.assign(nv, -1);
    ovHead_.assign(nv, -1);

    internMap_.reserve(m.constants.size() * 2 + 16);
    for (size_t i = 0; i < m.constants.size(); ++i) {
        const ConstEntry &c = m.constants[i];
        constIdx_[static_cast<size_t>(c.id)] = static_cast<i32>(i);
        internMap_.emplace(c.value, c.id);
        // Re-checked at dce time: initially unreferenced entries are
        // purged by the first dce scan, like the reference sweep.
        constCandidates_.push_back(c.id);
    }

    // CSR def-use: count, prefix-sum, fill (useLen_ doubles as the
    // per-value fill cursor and ends up as the live prefix length).
    csrValues_ = nv;
    useStart_.assign(nv + 1, 0);
    for (const Inst &inst : m.body) {
        forEachOperand(inst, [&](const i32 &x) {
            ++useStart_[static_cast<size_t>(x) + 1];
        });
    }
    for (i32 out : m.outputs)
        ++useStart_[static_cast<size_t>(out) + 1];
    for (size_t v = 0; v < nv; ++v)
        useStart_[v + 1] += useStart_[v];
    useEntries_.assign(static_cast<size_t>(useStart_[nv]), -1);
    useLen_.assign(nv, 0);
    for (size_t i = 0; i < bodySize_; ++i) {
        const Inst &inst = m.body[i];
        defOf_[static_cast<size_t>(inst.dst)] = static_cast<i32>(i);
        forEachOperand(inst, [&](const i32 &x) {
            const size_t v = static_cast<size_t>(x);
            useEntries_[static_cast<size_t>(useStart_[v]) +
                        static_cast<size_t>(useLen_[v]++)] =
                static_cast<i32>(i);
            ++useCount_[v];
        });
    }
    for (size_t k = 0; k < m.outputs.size(); ++k) {
        const size_t v = static_cast<size_t>(m.outputs[k]);
        useEntries_[static_cast<size_t>(useStart_[v]) +
                    static_cast<size_t>(useLen_[v]++)] =
            encodeOutputUser(k);
        ++useCount_[v];
    }

    // All-ones dirty sets: round 1 == the reference engine's first
    // full sweeps.
    const size_t words = (bodySize_ + 63) / 64;
    std::vector<u64> allDirty(words, ~u64{0});
    if (bodySize_ % 64 != 0 && words > 0)
        allDirty[words - 1] = (u64{1} << (bodySize_ % 64)) - 1;
    slotDirty_.assign(rewriterSlots, allDirty);
    dceDirty_ = allDirty;
}

const BigInt *
OptContext::constOf(i32 id) const
{
    const i32 ci = constIdx_[static_cast<size_t>(id)];
    return ci < 0 ? nullptr
                  : &m_->constants[static_cast<size_t>(ci)].value;
}

i32
OptContext::internConst(const BigInt &v)
{
    auto [it, inserted] = internMap_.try_emplace(v, 0);
    if (!inserted)
        return it->second;
    const i32 id = m_->numValues++;
    it->second = id;
    m_->constants.push_back({id, v});
    constAlive_.push_back(1);
    useCount_.push_back(0);
    defOf_.push_back(-1);
    rep_.push_back(-1);
    ovHead_.push_back(-1);
    constIdx_.push_back(static_cast<i32>(m_->constants.size()) - 1);
    // In case no surviving use materializes (dce re-checks the count).
    constCandidates_.push_back(id);
    return id;
}

i32
OptContext::resolve(i32 id)
{
    return resolveRep(rep_, id);
}

void
OptContext::decUse(i32 id)
{
    const size_t v = static_cast<size_t>(id);
    if (--useCount_[v] != 0)
        return;
    const i32 def = defOf_[v];
    if (def >= 0) {
        dceDirty_[static_cast<size_t>(def) / 64] |=
            u64{1} << (static_cast<size_t>(def) % 64);
    } else if (constIdx_[v] >= 0) {
        constCandidates_.push_back(id);
    }
}

void
OptContext::addUse(i32 id, i32 user)
{
    const size_t v = static_cast<size_t>(id);
    ++useCount_[v];
    if (v < csrValues_) {
        const size_t cap = static_cast<size_t>(useStart_[v + 1]) -
                           static_cast<size_t>(useStart_[v]);
        if (static_cast<size_t>(useLen_[v]) < cap) {
            useEntries_[static_cast<size_t>(useStart_[v]) +
                        static_cast<size_t>(useLen_[v]++)] = user;
            return;
        }
    }
    ovPool_.push_back({user, ovHead_[v]});
    ovHead_[v] = static_cast<i32>(ovPool_.size()) - 1;
}

void
OptContext::markDirtyAllSlots(size_t idx)
{
    const size_t w = idx / 64;
    const u64 bit = u64{1} << (idx % 64);
    for (std::vector<u64> &set : slotDirty_)
        set[w] |= bit;
}

void
OptContext::forwardUses(i32 from, i32 to)
{
    const size_t v = static_cast<size_t>(from);
    auto handleUser = [&](i32 user) {
        if (user >= 0) {
            const size_t u = static_cast<size_t>(user);
            if (!alive_[u])
                return; // stale entry of a tombstoned instruction
            Inst &in = m_->body[u];
            bool touched = false;
            forEachOperand(in, [&](i32 &x) {
                if (x == from) {
                    x = to;
                    addUse(to, user);
                    touched = true;
                }
            });
            if (touched)
                markDirtyAllSlots(u);
        } else {
            const size_t slot = decodeOutputUser(user);
            if (m_->outputs[slot] == from) {
                m_->outputs[slot] = to;
                addUse(to, user);
            }
        }
    };

    if (v < csrValues_) {
        const size_t start = static_cast<size_t>(useStart_[v]);
        const size_t len = static_cast<size_t>(useLen_[v]);
        for (size_t k = 0; k < len; ++k)
            handleUser(useEntries_[start + k]);
        useLen_[v] = 0;
    }
    // Index-based walk: addUse() may grow ovPool_ (for `to`) while we
    // iterate `from`'s chain.
    for (i32 o = ovHead_[v]; o >= 0;) {
        const i32 next = ovPool_[static_cast<size_t>(o)].next;
        handleUser(ovPool_[static_cast<size_t>(o)].user);
        o = next;
    }
    ovHead_[v] = -1;
    useCount_[v] = 0;
}

void
OptContext::elideInst(size_t idx, i32 replacement)
{
    FINESSE_CHECK(alive_[idx], "elideInst on a tombstoned instruction");
    Inst &inst = m_->body[idx];
    const i32 dst = inst.dst;
    const i32 target = resolve(replacement);
    FINESSE_CHECK(target != dst, "elideInst: self-replacement of %",
                  dst);
    alive_[idx] = 0;
    ++scanRemoved_;
    forEachOperand(inst, [&](i32 &x) { decUse(x); });
    rep_[static_cast<size_t>(dst)] = target;
    forwardUses(dst, target);
}

void
OptContext::applyRewrite(size_t idx, const Inst &before)
{
    Inst &now = m_->body[idx];
    // Move the use bookkeeping from the old operand multiset to the
    // new one. Transient zero counts are harmless: dce re-checks every
    // candidate when it runs.
    forEachOperand(before, [&](const i32 &x) { decUse(x); });
    forEachOperand(now, [&](i32 &x) {
        addUse(x, static_cast<i32>(idx));
    });
    markDirtyAllSlots(idx);
    ++scanRewrites_;
}

OptContext::ScanResult
OptContext::scanRewriter(size_t slot, InstRewriter &rw)
{
    scanRemoved_ = 0;
    scanRewrites_ = 0;
    std::vector<u64> &bits = slotDirty_[slot];
    size_t w = 0;
    while (w < bits.size()) {
        const u64 word = bits[w];
        if (!word) {
            ++w;
            continue;
        }
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(word));
        bits[w] = word & (word - 1);
        const size_t idx = w * 64 + b;
        if (!alive_[idx])
            continue;
        Inst &inst = m_->body[idx];
        const Inst before = inst;
        const i32 repl = rw.simplifyAt(*this, inst, idx);
        if (repl >= 0) {
            inst = before; // keep counts exact if a rewrite preceded
            elideInst(idx, repl);
        } else if (!(inst == before)) {
            applyRewrite(idx, before);
        }
        // Re-read bits[w]: processing may have dirtied instructions
        // ahead of the cursor within this very word.
    }
    ScanResult r;
    r.instsRemoved = scanRemoved_;
    r.changed = scanRemoved_ > 0 || scanRewrites_ > 0;
    return r;
}

OptContext::ScanResult
OptContext::scanDce()
{
    scanRemoved_ = 0;
    // Descending over defs whose use count hit zero; tombstoning an
    // instruction can zero its operands' counts, whose (earlier) defs
    // the scan then reaches naturally -- a backward liveness sweep
    // restricted to the affected region.
    size_t w = dceDirty_.size();
    while (w-- > 0) {
        while (true) {
            const u64 word = dceDirty_[w];
            if (!word)
                break;
            const unsigned b =
                63u - static_cast<unsigned>(std::countl_zero(word));
            dceDirty_[w] &= ~(u64{1} << b);
            const size_t idx = w * 64 + b;
            if (!alive_[idx])
                continue;
            Inst &inst = m_->body[idx];
            if (useCount_[static_cast<size_t>(inst.dst)] != 0)
                continue;
            alive_[idx] = 0;
            ++scanRemoved_;
            forEachOperand(inst, [&](i32 &x) { decUse(x); });
        }
    }

    // Purge constant-pool entries with no remaining uses -- and drop
    // them from the intern map, so a later fold of the same value
    // allocates a fresh id exactly like the reference engine (whose
    // per-sweep maps are rebuilt from the post-dce pool).
    size_t constsRemoved = 0;
    for (i32 cid : constCandidates_) {
        const size_t v = static_cast<size_t>(cid);
        const i32 ci = constIdx_[v];
        if (ci < 0 || useCount_[v] != 0)
            continue;
        constAlive_[static_cast<size_t>(ci)] = 0;
        internMap_.erase(m_->constants[static_cast<size_t>(ci)].value);
        constIdx_[v] = -1;
        ++constsRemoved;
    }
    constCandidates_.clear();

    ScanResult r;
    r.instsRemoved = scanRemoved_;
    r.changed = scanRemoved_ > 0 || constsRemoved > 0;
    return r;
}

size_t
OptContext::compact()
{
    return m_->compact(alive_, constAlive_);
}

int
runFrontendWorklist(Module &m, OptStats &stats,
                    const std::vector<Pass *> &group)
{
    struct Slot
    {
        Pass *pass;
        InstRewriter *rw;
        size_t rwSlot;
        PassStats *stats;
    };
    std::vector<Slot> slots;
    slots.reserve(group.size());
    size_t rewriterSlots = 0;
    for (Pass *p : group) {
        InstRewriter *rw = p->instRewriter();
        FINESSE_CHECK(rw || p->name() == "dce",
                      "front-end pass without a worklist hook: ",
                      p->name());
        slots.push_back({p, rw, rw ? rewriterSlots++ : 0, nullptr});
    }

    OptContext oc(m, rewriterSlots);

    // Create every PassStats entry first (pipeline order, identical to
    // the sweep engine's first-invocation order), THEN take pointers:
    // ensurePassStats appends and can reallocate the vector.
    for (const Slot &s : slots)
        ensurePassStats(stats, s.pass->name(), true);
    for (Slot &s : slots)
        s.stats = &ensurePassStats(stats, s.pass->name(), true);

    for (Slot &s : slots) {
        if (s.rw)
            s.rw->beginRun(oc);
    }

    int rounds = 0;
    bool changed = true;
    while (changed && rounds < PassManager::kMaxFixpointIters) {
        ++rounds;
        changed = false;
        for (Slot &s : slots) {
            const auto start = Clock::now();
            const OptContext::ScanResult r =
                s.rw ? oc.scanRewriter(s.rwSlot, *s.rw) : oc.scanDce();
            const double dt = secondsSince(start);
            s.stats->invocations += 1;
            s.stats->instrsRemoved += static_cast<i64>(r.instsRemoved);
            s.stats->seconds += dt;
            stats.seconds += dt;
            changed |= r.changed;
        }
    }
    stats.iterations += rounds;
    oc.compact();
    return rounds;
}

} // namespace finesse
