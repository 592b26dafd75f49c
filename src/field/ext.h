/**
 * @file
 * Generic quadratic and cubic extension-field templates. These are the
 * operator kit of the framework: every tower level (Fp2 ... Fp24 along
 * the divisor lattice of 24) is a composition of these two templates.
 *
 * Each arithmetic routine dispatches on the operator variant recorded in
 * its level context (Karatsuba/Schoolbook multiplication, Complex /
 * CH-SQR squarings, Table 5 of the paper). Because the templates are
 * generic over the base element type, the *same* formulas serve:
 *  - the native library (Base bottoms out at finesse::Fp), and
 *  - the compiler's code generation (Base bottoms out at SymFp, which
 *    records Fp-level SSA IR instead of computing).
 * This is the paper's single-source-of-truth co-design abstraction.
 */
#ifndef FINESSE_FIELD_EXT_H_
#define FINESSE_FIELD_EXT_H_

#include <type_traits>
#include <vector>

#include "bigint/bigint.h"
#include "field/fieldops.h"
#include "field/variants.h"
#include "support/common.h"

namespace finesse {

/**
 * Description of the adjoined-element square/cube ("non-residue") that
 * defines an extension level. Three shapes cover all supported towers:
 *  - kSmallInt: nu is a small integer (Fp2 = Fp[u]/(u^2 - q))
 *  - kQuadSmall: nu = n0 + n1*u with small integers over a quadratic base
 *    (Fp6 = Fp2[v]/(v^3 - xi), Fp4 = Fp2[s]/(s^2 - xi))
 *  - kBaseGen: nu is the generator of the base level itself
 *    (Fp12 = Fp6[w]/(w^2 - v); the canonical tower chain)
 */
struct NuDesc
{
    enum class Kind { kSmallInt, kQuadSmall, kBaseGen };

    Kind kind = Kind::kSmallInt;
    i64 n0 = 0;
    i64 n1 = 0;

    static NuDesc
    smallInt(i64 q)
    {
        return {Kind::kSmallInt, q, 0};
    }

    static NuDesc
    quadSmall(i64 a, i64 b)
    {
        return {Kind::kQuadSmall, a, b};
    }

    static NuDesc
    baseGen()
    {
        return {Kind::kBaseGen, 0, 0};
    }

    /** x * nu for an element x of the level's base. */
    template <typename Base>
    Base
    mul(const Base &x) const
    {
        switch (kind) {
          case Kind::kSmallInt:
            return muliSmall(x, n0);
          case Kind::kQuadSmall:
            if constexpr (requires { x.mulBySmallPair(i64{0}, i64{0}); }) {
                return x.mulBySmallPair(n0, n1);
            } else {
                panic("kQuadSmall nu over non-quadratic base");
            }
          case Kind::kBaseGen:
            if constexpr (requires { x.mulByGen(); }) {
                return x.mulByGen();
            } else {
                panic("kBaseGen nu over prime base");
            }
        }
        panic("bad NuDesc");
    }
};

template <typename Base>
class QuadExt;
template <typename Base>
class CubicExt;

/** Context of one quadratic extension level. */
template <typename Base>
struct QuadCtx
{
    using BaseCtx = typename Base::Ctx;

    const BaseCtx *base = nullptr;
    NuDesc nu;
    LevelVariants variants;
    int degree = 0;  ///< absolute extension degree over Fp
    Base frobC1;     ///< nu^((p-1)/2): w^p = w * frobC1

    /** x * nu for a base-level element x. */
    Base mulByNu(const Base &x) const { return nu.mul(x); }
};

/** Context of one cubic extension level. */
template <typename Base>
struct CubicCtx
{
    using BaseCtx = typename Base::Ctx;

    const BaseCtx *base = nullptr;
    NuDesc nu;
    LevelVariants variants;
    int degree = 0;
    Base frobC1; ///< nu^((p-1)/3): v^p = v * frobC1
    Base frobC2; ///< frobC1^2:     (v^2)^p = v^2 * frobC2

    Base mulByNu(const Base &x) const { return nu.mul(x); }
};

/**
 * Quadratic extension Base[w]/(w^2 - nu).
 */
template <typename Base>
class QuadExt
{
  public:
    using Ctx = QuadCtx<Base>;

    QuadExt() = default;

    QuadExt(Base c0, Base c1, const Ctx *ctx)
        : c0_(std::move(c0)), c1_(std::move(c1)), ctx_(ctx)
    {}

    static QuadExt
    zero(const Ctx *ctx)
    {
        return {Base::zero(ctx->base), Base::zero(ctx->base), ctx};
    }

    static QuadExt
    one(const Ctx *ctx)
    {
        return {Base::one(ctx->base), Base::zero(ctx->base), ctx};
    }

    /** The adjoined generator w. */
    static QuadExt
    gen(const Ctx *ctx)
    {
        return {Base::zero(ctx->base), Base::one(ctx->base), ctx};
    }

    QuadExt zeroLike() const { return zero(ctx_); }
    QuadExt oneLike() const { return one(ctx_); }

    const Base &c0() const { return c0_; }
    const Base &c1() const { return c1_; }
    const Ctx *fieldCtx() const { return ctx_; }

    // Linear operations --------------------------------------------------
    QuadExt
    add(const QuadExt &o) const
    {
        return {c0_.add(o.c0_), c1_.add(o.c1_), ctx_};
    }

    QuadExt
    sub(const QuadExt &o) const
    {
        return {c0_.sub(o.c0_), c1_.sub(o.c1_), ctx_};
    }

    QuadExt neg() const { return {c0_.neg(), c1_.neg(), ctx_}; }
    QuadExt dbl() const { return {c0_.dbl(), c1_.dbl(), ctx_}; }
    QuadExt tpl() const { return {c0_.tpl(), c1_.tpl(), ctx_}; }

    QuadExt
    halve() const
    {
        return {c0_.halve(), c1_.halve(), ctx_};
    }

    /** Conjugation w -> -w (the nontrivial automorphism over Base). */
    QuadExt conj() const { return {c0_, c1_.neg(), ctx_}; }

    // Multiplicative operations -------------------------------------------
    QuadExt
    mul(const QuadExt &o) const
    {
        // Over the native prime field (always u^2 = q, a small integer)
        // every Fp2 product is one call into the base field's Fp2
        // kernel (Karatsuba), whatever the variant config says. The
        // symbolic twin has no kernel and keeps the variant-dispatched
        // formulas below.
        if constexpr (kFp2Kernel) {
            QuadExt r;
            r.ctx_ = ctx_;
            Base::fp2Mul(r.c0_, r.c1_, c0_, c1_, o.c0_, o.c1_,
                         ctx_->nu.n0);
            return r;
        }
        switch (ctx_->variants.mul) {
          case MulVariant::Schoolbook: {
            // c0 = a0 b0 + nu a1 b1 ; c1 = a0 b1 + a1 b0   (4M)
            const Base v0 = c0_.mul(o.c0_);
            const Base v1 = c1_.mul(o.c1_);
            return {v0.add(ctx_->mulByNu(v1)),
                    c0_.mul(o.c1_).add(c1_.mul(o.c0_)), ctx_};
          }
          case MulVariant::Karatsuba: {
            // 3M: v0 = a0 b0, v1 = a1 b1,
            // c1 = (a0+a1)(b0+b1) - v0 - v1, c0 = v0 + nu v1
            const Base v0 = c0_.mul(o.c0_);
            const Base v1 = c1_.mul(o.c1_);
            const Base t = c0_.add(c1_).mul(o.c0_.add(o.c1_));
            return {v0.add(ctx_->mulByNu(v1)), t.sub(v0).sub(v1), ctx_};
          }
        }
        panic("bad MulVariant");
    }

    QuadExt
    sqr() const
    {
        // Complex squaring in the base field's Fp2 kernel (see mul).
        if constexpr (kFp2Kernel) {
            QuadExt r;
            r.ctx_ = ctx_;
            Base::fp2Sqr(r.c0_, r.c1_, c0_, c1_, ctx_->nu.n0);
            return r;
        }
        switch (ctx_->variants.sqr) {
          case SqrVariant::Complex: {
            // 2M: v0 = a0 a1;
            // c0 = (a0 + a1)(a0 + nu a1) - v0 - nu v0; c1 = 2 v0
            const Base v0 = c0_.mul(c1_);
            const Base t =
                c0_.add(c1_).mul(c0_.add(ctx_->mulByNu(c1_)));
            return {t.sub(v0).sub(ctx_->mulByNu(v0)), v0.dbl(), ctx_};
          }
          case SqrVariant::Schoolbook:
          default: {
            // 2S+1M: c0 = a0^2 + nu a1^2 ; c1 = 2 a0 a1
            const Base s0 = c0_.sqr();
            const Base s1 = c1_.sqr();
            return {s0.add(ctx_->mulByNu(s1)), c0_.mul(c1_).dbl(), ctx_};
          }
        }
    }

    /** Norm to Base: x * conj(x) = a0^2 - nu a1^2. */
    Base
    norm() const
    {
        return c0_.sqr().sub(ctx_->mulByNu(c1_.sqr()));
    }

    /** Inverse: (a0 - a1 w) / norm(). Zero maps to zero. */
    QuadExt
    inv() const
    {
        const Base t = norm().inv();
        return {c0_.mul(t), c1_.mul(t).neg(), ctx_};
    }

    /** Frobenius x -> x^p (single application). */
    QuadExt
    frob() const
    {
        return {c0_.frob(), c1_.frob().mul(ctx_->frobC1), ctx_};
    }

    /** Multiply by the own generator w: (a0 + a1 w) w = nu a1 + a0 w. */
    QuadExt
    mulByGen() const
    {
        return {ctx_->mulByNu(c1_), c0_, ctx_};
    }

    /**
     * Multiply by a constant n0 + n1*w with small integer coefficients
     * (used when a higher level's non-residue lives at this level).
     */
    QuadExt
    mulBySmallPair(i64 n0, i64 n1) const
    {
        const Base t0 =
            muliSmall(c0_, n0).add(ctx_->mulByNu(muliSmall(c1_, n1)));
        const Base t1 = muliSmall(c0_, n1).add(muliSmall(c1_, n0));
        return {t0, t1, ctx_};
    }

    /** Scalar multiply coordinates by a base-level element. */
    QuadExt
    scale(const Base &s) const
    {
        return {c0_.mul(s), c1_.mul(s), ctx_};
    }

    /** Multiply every Fp coefficient by an arbitrarily deep scalar. */
    template <typename S>
    QuadExt
    scaleScalar(const S &s) const
    {
        if constexpr (std::is_same_v<S, Base>) {
            return scale(s);
        } else {
            return {c0_.scaleScalar(s), c1_.scaleScalar(s), ctx_};
        }
    }

    // Native-only observers ------------------------------------------------
    bool isZero() const { return c0_.isZero() && c1_.isZero(); }

    bool
    equals(const QuadExt &o) const
    {
        return c0_.equals(o.c0_) && c1_.equals(o.c1_);
    }

    // Coefficient (de)serialization over Fp --------------------------------
    void
    toFpCoeffs(std::vector<BigInt> &out) const
    {
        c0_.toFpCoeffs(out);
        c1_.toFpCoeffs(out);
    }

    template <typename It>
    static QuadExt
    fromFpCoeffs(const Ctx *ctx, It &it)
    {
        Base a = Base::fromFpCoeffs(ctx->base, it);
        Base b = Base::fromFpCoeffs(ctx->base, it);
        return {std::move(a), std::move(b), ctx};
    }

  private:
    /** Base is the native prime field, which carries the Fp2 kernels. */
    static constexpr bool kFp2Kernel = requires(Base &r, const Base &a) {
        Base::fp2Mul(r, r, a, a, a, a, i64{0});
        Base::fp2Sqr(r, r, a, a, i64{0});
    };

    Base c0_, c1_;
    const Ctx *ctx_ = nullptr;
};

/**
 * Cubic extension Base[v]/(v^3 - nu).
 */
template <typename Base>
class CubicExt
{
  public:
    using Ctx = CubicCtx<Base>;

    CubicExt() = default;

    CubicExt(Base c0, Base c1, Base c2, const Ctx *ctx)
        : c0_(std::move(c0)), c1_(std::move(c1)), c2_(std::move(c2)),
          ctx_(ctx)
    {}

    static CubicExt
    zero(const Ctx *ctx)
    {
        return {Base::zero(ctx->base), Base::zero(ctx->base),
                Base::zero(ctx->base), ctx};
    }

    static CubicExt
    one(const Ctx *ctx)
    {
        return {Base::one(ctx->base), Base::zero(ctx->base),
                Base::zero(ctx->base), ctx};
    }

    /** The adjoined generator v. */
    static CubicExt
    gen(const Ctx *ctx)
    {
        return {Base::zero(ctx->base), Base::one(ctx->base),
                Base::zero(ctx->base), ctx};
    }

    CubicExt zeroLike() const { return zero(ctx_); }
    CubicExt oneLike() const { return one(ctx_); }

    const Base &c0() const { return c0_; }
    const Base &c1() const { return c1_; }
    const Base &c2() const { return c2_; }
    const Ctx *fieldCtx() const { return ctx_; }

    // Linear operations --------------------------------------------------
    CubicExt
    add(const CubicExt &o) const
    {
        return {c0_.add(o.c0_), c1_.add(o.c1_), c2_.add(o.c2_), ctx_};
    }

    CubicExt
    sub(const CubicExt &o) const
    {
        return {c0_.sub(o.c0_), c1_.sub(o.c1_), c2_.sub(o.c2_), ctx_};
    }

    CubicExt neg() const { return {c0_.neg(), c1_.neg(), c2_.neg(), ctx_}; }
    CubicExt dbl() const { return {c0_.dbl(), c1_.dbl(), c2_.dbl(), ctx_}; }
    CubicExt tpl() const { return {c0_.tpl(), c1_.tpl(), c2_.tpl(), ctx_}; }

    CubicExt
    halve() const
    {
        return {c0_.halve(), c1_.halve(), c2_.halve(), ctx_};
    }

    // Multiplicative operations -------------------------------------------
    CubicExt
    mul(const CubicExt &o) const
    {
        switch (ctx_->variants.mul) {
          case MulVariant::Schoolbook: {
            // 9M with reduction v^3 = nu.
            const Base t00 = c0_.mul(o.c0_);
            const Base t01 = c0_.mul(o.c1_);
            const Base t02 = c0_.mul(o.c2_);
            const Base t10 = c1_.mul(o.c0_);
            const Base t11 = c1_.mul(o.c1_);
            const Base t12 = c1_.mul(o.c2_);
            const Base t20 = c2_.mul(o.c0_);
            const Base t21 = c2_.mul(o.c1_);
            const Base t22 = c2_.mul(o.c2_);
            return {t00.add(ctx_->mulByNu(t12.add(t21))),
                    t01.add(t10).add(ctx_->mulByNu(t22)),
                    t02.add(t11).add(t20), ctx_};
          }
          case MulVariant::Karatsuba: {
            // 6M (Toom/Karatsuba interpolation-free form):
            // v0 = a0 b0, v1 = a1 b1, v2 = a2 b2
            // c0 = v0 + nu ((a1+a2)(b1+b2) - v1 - v2)
            // c1 = (a0+a1)(b0+b1) - v0 - v1 + nu v2
            // c2 = (a0+a2)(b0+b2) - v0 - v2 + v1
            const Base v0 = c0_.mul(o.c0_);
            const Base v1 = c1_.mul(o.c1_);
            const Base v2 = c2_.mul(o.c2_);
            const Base t12 = c1_.add(c2_).mul(o.c1_.add(o.c2_));
            const Base t01 = c0_.add(c1_).mul(o.c0_.add(o.c1_));
            const Base t02 = c0_.add(c2_).mul(o.c0_.add(o.c2_));
            return {v0.add(ctx_->mulByNu(t12.sub(v1).sub(v2))),
                    t01.sub(v0).sub(v1).add(ctx_->mulByNu(v2)),
                    t02.sub(v0).sub(v2).add(v1), ctx_};
          }
        }
        panic("bad MulVariant");
    }

    CubicExt
    sqr() const
    {
        switch (ctx_->variants.sqr) {
          case SqrVariant::CHSqr3: {
            // Chung-Hasan SQR3: 2M + 3S.
            const Base s0 = c0_.sqr();
            const Base s1 = c0_.mul(c1_).dbl();
            const Base s2 = c0_.sub(c1_).add(c2_).sqr();
            const Base s3 = c1_.mul(c2_).dbl();
            const Base s4 = c2_.sqr();
            return {s0.add(ctx_->mulByNu(s3)), s1.add(ctx_->mulByNu(s4)),
                    s1.add(s2).add(s3).sub(s0).sub(s4), ctx_};
          }
          case SqrVariant::CHSqr2: {
            // Chung-Hasan SQR2: 1M + 4S + 2 halvings.
            const Base s0 = c0_.sqr();
            const Base s1 = c0_.add(c1_).add(c2_).sqr();
            const Base s2 = c0_.sub(c1_).add(c2_).sqr();
            const Base s3 = c1_.mul(c2_).dbl();
            const Base s4 = c2_.sqr();
            const Base sumHalf = s1.add(s2).halve();
            const Base diffHalf = s1.sub(s2).halve();
            return {s0.add(ctx_->mulByNu(s3)),
                    diffHalf.sub(s3).add(ctx_->mulByNu(s4)),
                    sumHalf.sub(s0).sub(s4), ctx_};
          }
          case SqrVariant::Schoolbook:
          case SqrVariant::Complex:
          default: {
            // 3S + 3M schoolbook squaring.
            const Base s0 = c0_.sqr();
            const Base s1 = c1_.sqr();
            const Base s2 = c2_.sqr();
            const Base t01 = c0_.mul(c1_).dbl();
            const Base t02 = c0_.mul(c2_).dbl();
            const Base t12 = c1_.mul(c2_).dbl();
            return {s0.add(ctx_->mulByNu(t12)),
                    t01.add(ctx_->mulByNu(s2)), t02.add(s1), ctx_};
          }
        }
    }

    /** Norm to Base: the product of x's three conjugates. */
    Base
    norm() const
    {
        return normFrom(adjugate());
    }

    /** Inverse via the adjugate formulas (zero maps to zero). */
    CubicExt
    inv() const
    {
        const CubicExt d = adjugate();
        const Base t = normFrom(d).inv();
        return {d.c0_.mul(t), d.c1_.mul(t), d.c2_.mul(t), ctx_};
    }

    /** Frobenius x -> x^p. */
    CubicExt
    frob() const
    {
        return {c0_.frob(), c1_.frob().mul(ctx_->frobC1),
                c2_.frob().mul(ctx_->frobC2), ctx_};
    }

    /** Multiply by own generator v: (a0,a1,a2) v = (nu a2, a0, a1). */
    CubicExt
    mulByGen() const
    {
        return {ctx_->mulByNu(c2_), c0_, c1_, ctx_};
    }

    /** Scalar multiply coordinates by a base-level element. */
    CubicExt
    scale(const Base &s) const
    {
        return {c0_.mul(s), c1_.mul(s), c2_.mul(s), ctx_};
    }

    /** Multiply every Fp coefficient by an arbitrarily deep scalar. */
    template <typename S>
    CubicExt
    scaleScalar(const S &s) const
    {
        if constexpr (std::is_same_v<S, Base>) {
            return scale(s);
        } else {
            return {c0_.scaleScalar(s), c1_.scaleScalar(s),
                    c2_.scaleScalar(s), ctx_};
        }
    }

    // Native-only observers ------------------------------------------------
    bool
    isZero() const
    {
        return c0_.isZero() && c1_.isZero() && c2_.isZero();
    }

    bool
    equals(const CubicExt &o) const
    {
        return c0_.equals(o.c0_) && c1_.equals(o.c1_) && c2_.equals(o.c2_);
    }

    void
    toFpCoeffs(std::vector<BigInt> &out) const
    {
        c0_.toFpCoeffs(out);
        c1_.toFpCoeffs(out);
        c2_.toFpCoeffs(out);
    }

    template <typename It>
    static CubicExt
    fromFpCoeffs(const Ctx *ctx, It &it)
    {
        Base a = Base::fromFpCoeffs(ctx->base, it);
        Base b = Base::fromFpCoeffs(ctx->base, it);
        Base c = Base::fromFpCoeffs(ctx->base, it);
        return {std::move(a), std::move(b), std::move(c), ctx};
    }

  private:
    /** First row (d0, d1, d2) of the adjugate: x * d = norm(). */
    CubicExt
    adjugate() const
    {
        const Base d0 = c0_.sqr().sub(ctx_->mulByNu(c1_.mul(c2_)));
        const Base d1 = ctx_->mulByNu(c2_.sqr()).sub(c0_.mul(c1_));
        const Base d2 = c1_.sqr().sub(c0_.mul(c2_));
        return {d0, d1, d2, ctx_};
    }

    /** c0 d0 + nu (c2 d1 + c1 d2) for the adjugate @p d of this. */
    Base
    normFrom(const CubicExt &d) const
    {
        return c0_.mul(d.c0_).add(
            ctx_->mulByNu(c2_.mul(d.c1_).add(c1_.mul(d.c2_))));
    }

    Base c0_, c1_, c2_;
    const Ctx *ctx_ = nullptr;
};

} // namespace finesse

#endif // FINESSE_FIELD_EXT_H_
