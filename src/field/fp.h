/**
 * @file
 * Native base-field element Fp. This is the "reference library" view of
 * the base field: concrete Montgomery arithmetic, used by the operator
 * kit, the curve/pairing stack and by the functional simulator's
 * cross-validation oracle.
 *
 * The symbolic counterpart (compiler/symfp.h) exposes the identical
 * method surface, so every tower/curve/pairing template can be
 * instantiated either natively (compute values) or symbolically (emit IR).
 */
#ifndef FINESSE_FIELD_FP_H_
#define FINESSE_FIELD_FP_H_

#include <string>

#include "bigint/mont.h"

namespace finesse {

/** Base-field context: Montgomery machinery plus cached constants. */
struct FpCtx
{
    explicit FpCtx(const BigInt &p)
        : mont(p),
          inv2(mont.toMont((p + BigInt(u64{1})) >> 1))
    {}

    MontCtx mont;
    Residue inv2; ///< 1/2 mod p, used by halving variants (CH-SQR2)

    const BigInt &modulus() const { return mont.modulus(); }
    int bits() const { return mont.bits(); }
};

/**
 * Element of the prime field Fp (Montgomery domain).
 *
 * The sequence of operations an algorithm issues on Fp elements never
 * depends on element values. That is what the symbolic twin
 * (compiler/symfp.h) needs to record the same call sequence, and what
 * makes the hardware mapping data-independent (the paper's
 * constant-time property). The native kernels are not branch-free
 * inside: MontKernel<N>'s add, sub, neg and condSub, and the final
 * reductions of mulSpareBit, sqr and redc, branch on the data, and
 * inversion is a binary extended GCD (bigint/montkernel.h, mont.h).
 * Only the 4-limb ADX kernels -- Montgomery mul and sqr, add, sub and
 * neg, and the Fp2 mul and sqr built on them -- are branch-free inside.
 */
class Fp
{
  public:
    using Ctx = FpCtx;

    Fp() = default;

    static Fp
    zero(const Ctx *ctx)
    {
        Fp r;
        r.ctx_ = ctx;
        r.v_ = Residue{};
        return r;
    }

    static Fp
    one(const Ctx *ctx)
    {
        Fp r;
        r.ctx_ = ctx;
        r.v_ = ctx->mont.one();
        return r;
    }

    /** From a standard-domain integer (reduced mod p). */
    static Fp
    fromBig(const Ctx *ctx, const BigInt &v)
    {
        Fp r;
        r.ctx_ = ctx;
        r.v_ = ctx->mont.toMont(v);
        return r;
    }

    static Fp
    fromInt(const Ctx *ctx, i64 v)
    {
        return fromBig(ctx, BigInt(v));
    }

    /** To standard-domain integer in [0, p). */
    BigInt toBig() const { return ctx_->mont.fromMont(v_); }

    const Ctx *fieldCtx() const { return ctx_; }
    const Residue &raw() const { return v_; }

    static Fp
    fromRaw(const Ctx *ctx, const Residue &r)
    {
        Fp f;
        f.ctx_ = ctx;
        f.v_ = r;
        return f;
    }

    // Element-shaped constructors used by generic tower code ------------
    Fp zeroLike() const { return zero(ctx_); }
    Fp oneLike() const { return one(ctx_); }

    // Arithmetic ---------------------------------------------------------
    Fp
    add(const Fp &o) const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.add(r.v_, v_, o.v_);
        return r;
    }

    Fp
    sub(const Fp &o) const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.sub(r.v_, v_, o.v_);
        return r;
    }

    Fp
    neg() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.neg(r.v_, v_);
        return r;
    }

    /** 2a (hardware DBL). */
    Fp
    dbl() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.add(r.v_, v_, v_);
        return r;
    }

    /** 3a (hardware TPL). */
    Fp
    tpl() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.add(r.v_, v_, v_);
        ctx_->mont.add(r.v_, r.v_, v_);
        return r;
    }

    Fp
    mul(const Fp &o) const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.mul(r.v_, v_, o.v_);
        return r;
    }

    Fp
    sqr() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.sqr(r.v_, v_);
        return r;
    }

    /** Multiplicative inverse (zero maps to zero; hardware INV unit). */
    Fp
    inv() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.inv(r.v_, v_);
        return r;
    }

    /**
     * Batch inversion in place (Montgomery's trick, MontCtx::batchInv):
     * one inversion + 3(n-1) muls for the whole vector, bit-identical
     * results to per-element inv(). Zero elements stay zero. All
     * elements must share one field context.
     */
    static void
    batchInv(std::vector<Fp> &elems)
    {
        if (elems.empty())
            return;
        const Ctx *ctx = elems[0].ctx_;
        std::vector<Residue> vals(elems.size());
        for (size_t i = 0; i < elems.size(); ++i)
            vals[i] = elems[i].v_;
        ctx->mont.batchInv(vals.data(), vals.data(), vals.size());
        for (size_t i = 0; i < elems.size(); ++i)
            elems[i].v_ = vals[i];
    }

    /** a/2 = a * inv2; maps to a constant multiplication in hardware. */
    Fp
    halve() const
    {
        Fp r;
        r.ctx_ = ctx_;
        ctx_->mont.mul(r.v_, v_, ctx_->inv2);
        return r;
    }

    /** Frobenius on the prime field is the identity. */
    Fp frob() const { return *this; }

    // Fp2 kernels ---------------------------------------------------------
    /**
     * (r0 + r1 u) = (a0 + a1 u)(b0 + b1 u) in Fp[u]/(u^2 - q): one call
     * into the context's Fp2 multiply (MontCtx::fp2Mul). QuadExt<Fp>
     * uses it for every Fp2 product. The symbolic twin (SymFp) has no
     * such member, so IR emission keeps the variant-dispatched formulas.
     */
    static void
    fp2Mul(Fp &r0, Fp &r1, const Fp &a0, const Fp &a1, const Fp &b0,
           const Fp &b1, i64 q)
    {
        r0.ctx_ = r1.ctx_ = a0.ctx_;
        a0.ctx_->mont.fp2Mul(r0.v_, r1.v_, a0.v_, a1.v_, b0.v_, b1.v_, q);
    }

    /** (r0 + r1 u) = (a0 + a1 u)^2 in Fp[u]/(u^2 - q) (MontCtx::fp2Sqr). */
    static void
    fp2Sqr(Fp &r0, Fp &r1, const Fp &a0, const Fp &a1, i64 q)
    {
        r0.ctx_ = r1.ctx_ = a0.ctx_;
        a0.ctx_->mont.fp2Sqr(r0.v_, r1.v_, a0.v_, a1.v_, q);
    }

    /** Fp-scalar multiplication (bottom of the scaleScalar recursion). */
    Fp scaleScalar(const Fp &s) const { return mul(s); }

    // Coefficient (de)serialization over Fp ------------------------------
    void
    toFpCoeffs(std::vector<BigInt> &out) const
    {
        out.push_back(toBig());
    }

    template <typename It>
    static Fp
    fromFpCoeffs(const Ctx *ctx, It &it)
    {
        return fromBig(ctx, *it++);
    }

    // Native-only observers (not part of the symbolic concept) ----------
    bool isZero() const { return ctx_->mont.isZero(v_); }

    bool
    equals(const Fp &o) const
    {
        return ctx_->mont.equal(v_, o.v_);
    }

    std::string toString() const { return toBig().toHexString(); }

  private:
    Residue v_{};
    const Ctx *ctx_ = nullptr;
};

/** Convenience operators for readable native code. */
inline Fp operator+(const Fp &a, const Fp &b) { return a.add(b); }
inline Fp operator-(const Fp &a, const Fp &b) { return a.sub(b); }
inline Fp operator*(const Fp &a, const Fp &b) { return a.mul(b); }
inline Fp operator-(const Fp &a) { return a.neg(); }

} // namespace finesse

#endif // FINESSE_FIELD_FP_H_
