/**
 * @file
 * Elliptic-curve point types and native group arithmetic, generic over
 * the coordinate field (Fp for G1, Fp2/Fp4 for twists). Curves are short
 * Weierstrass y^2 = x^3 + b (a = 0 throughout: BN and BLS families).
 *
 * These are the branchy, complete operators. Setup uses them for
 * generator derivation and cofactor clearing, tests as oracles, and
 * the serve path too: KZG's reduceToCheck (serve/verify.cpp) runs two
 * full-width scalarMul calls per request on the submitting thread, and
 * the batch verifier's endomorphism MSM (curve/msm.h) is built from
 * jacDouble, jacAddAffine and jacToAffineBatch. A full-width GLV
 * split for reduceToCheck would need Babai rounding and runs off the
 * verifier lanes, so it is not done. The branch-free Miller-loop step
 * operators (which are also traced by the compiler) live in
 * pairing/engine.h.
 */
#ifndef FINESSE_CURVE_POINT_H_
#define FINESSE_CURVE_POINT_H_

#include <functional>

#include "bigint/bigint.h"
#include "field/fieldops.h"
#include "field/sqrt.h"
#include "support/common.h"

namespace finesse {

/** Curve context: the field and the constant b of y^2 = x^3 + b. */
template <typename F>
struct CurveCtx
{
    const typename F::Ctx *field = nullptr;
    F b;
};

/** Affine point; infinity encoded by the flag. */
template <typename F>
struct AffinePt
{
    F x, y;
    bool infinity = true;

    static AffinePt
    atInfinity()
    {
        return AffinePt{};
    }

    static AffinePt
    make(F px, F py)
    {
        AffinePt p;
        p.x = std::move(px);
        p.y = std::move(py);
        p.infinity = false;
        return p;
    }

    AffinePt
    negate() const
    {
        if (infinity)
            return *this;
        return make(x, y.neg());
    }

    bool
    equals(const AffinePt &o) const
    {
        if (infinity || o.infinity)
            return infinity == o.infinity;
        return x.equals(o.x) && y.equals(o.y);
    }
};

/** Jacobian point (X/Z^2, Y/Z^3); Z = 0 encodes infinity. */
template <typename F>
struct JacPt
{
    F x, y, z;

    static JacPt
    fromAffine(const AffinePt<F> &p, const typename F::Ctx *ctx)
    {
        JacPt j;
        if (p.infinity) {
            j.x = F::one(ctx);
            j.y = F::one(ctx);
            j.z = F::zero(ctx);
        } else {
            j.x = p.x;
            j.y = p.y;
            j.z = F::one(ctx);
        }
        return j;
    }

    bool isInfinity() const { return z.isZero(); }
};

/** True when (x, y) satisfies y^2 = x^3 + b. */
template <typename F>
bool
isOnCurve(const CurveCtx<F> &c, const AffinePt<F> &p)
{
    if (p.infinity)
        return true;
    return p.y.sqr().equals(p.x.sqr().mul(p.x).add(c.b));
}

/** Jacobian doubling (a = 0), complete for the infinity case. */
template <typename F>
JacPt<F>
jacDouble(const JacPt<F> &p)
{
    if (p.isInfinity())
        return p;
    // dbl-2009-l.
    const F a = p.x.sqr();
    const F b = p.y.sqr();
    const F c = b.sqr();
    const F d = p.x.add(b).sqr().sub(a).sub(c).dbl();
    const F e = a.tpl();
    const F f = e.sqr();
    JacPt<F> r;
    r.x = f.sub(d.dbl());
    r.y = e.mul(d.sub(r.x)).sub(muliSmall(c, 8));
    r.z = p.y.mul(p.z).dbl();
    return r;
}

/** Jacobian + affine mixed addition with full special-case handling. */
template <typename F>
JacPt<F>
jacAddAffine(const JacPt<F> &p, const AffinePt<F> &q,
             const typename F::Ctx *ctx)
{
    if (q.infinity)
        return p;
    if (p.isInfinity())
        return JacPt<F>::fromAffine(q, ctx);
    const F z2 = p.z.sqr();
    const F u2 = q.x.mul(z2);
    const F s2 = q.y.mul(z2).mul(p.z);
    const F h = u2.sub(p.x);
    const F rr = s2.sub(p.y);
    if (h.isZero()) {
        if (rr.isZero())
            return jacDouble(p); // P == Q
        JacPt<F> inf;            // P == -Q
        inf.x = F::one(ctx);
        inf.y = F::one(ctx);
        inf.z = F::zero(ctx);
        return inf;
    }
    const F hh = h.sqr();
    const F hhh = hh.mul(h);
    const F v = p.x.mul(hh);
    JacPt<F> out;
    out.x = rr.sqr().sub(hhh).sub(v.dbl());
    out.y = rr.mul(v.sub(out.x)).sub(p.y.mul(hhh));
    out.z = p.z.mul(h);
    return out;
}

/** Jacobian -> affine via one inversion. */
template <typename F>
AffinePt<F>
jacToAffine(const JacPt<F> &p, const typename F::Ctx *ctx)
{
    if (p.isInfinity())
        return AffinePt<F>::atInfinity();
    const F zinv = p.z.inv();
    const F zi2 = zinv.sqr();
    (void)ctx;
    return AffinePt<F>::make(p.x.mul(zi2), p.y.mul(zi2).mul(zinv));
}

/**
 * Batched Jacobian -> affine: all Z inversions fold into one batch
 * inversion (Montgomery's trick, field/fieldops.h). Point-for-point
 * bit-identical to jacToAffine -- batch sampling paths must not
 * perturb any value a sequential path would produce.
 */
template <typename F>
std::vector<AffinePt<F>>
jacToAffineBatch(const std::vector<JacPt<F>> &pts,
                 const typename F::Ctx *ctx)
{
    std::vector<F> zinv;
    zinv.reserve(pts.size());
    for (const JacPt<F> &p : pts)
        zinv.push_back(p.z);
    batchInvInPlace(zinv); // infinity has z == 0, stays 0, unused below
    std::vector<AffinePt<F>> out;
    out.reserve(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].isInfinity()) {
            out.push_back(AffinePt<F>::atInfinity());
            continue;
        }
        const F zi2 = zinv[i].sqr();
        out.push_back(AffinePt<F>::make(pts[i].x.mul(zi2),
                                        pts[i].y.mul(zi2).mul(zinv[i])));
    }
    (void)ctx;
    return out;
}

/** [n]P in Jacobian form (the affine conversion is the caller's). */
template <typename F>
JacPt<F>
scalarMulJac(const CurveCtx<F> &c, const AffinePt<F> &p, const BigInt &n)
{
    if (n.isZero() || p.infinity)
        return JacPt<F>::fromAffine(AffinePt<F>::atInfinity(), c.field);
    const AffinePt<F> base = n.isNegative() ? p.negate() : p;
    const BigInt e = n.abs();
    JacPt<F> acc = JacPt<F>::fromAffine(AffinePt<F>::atInfinity(), c.field);
    for (int i = e.bitLength(); i-- > 0;) {
        acc = jacDouble(acc);
        if (e.bit(i))
            acc = jacAddAffine(acc, base, c.field);
    }
    return acc;
}

/** Scalar multiplication [n]P (binary double-and-add). */
template <typename F>
AffinePt<F>
scalarMul(const CurveCtx<F> &c, const AffinePt<F> &p, const BigInt &n)
{
    return jacToAffine(scalarMulJac(c, p, n), c.field);
}

/** Affine addition (reference oracle for tests). */
template <typename F>
AffinePt<F>
affineAdd(const CurveCtx<F> &c, const AffinePt<F> &p, const AffinePt<F> &q)
{
    JacPt<F> j = JacPt<F>::fromAffine(p, c.field);
    j = jacAddAffine(j, q, c.field);
    return jacToAffine(j, c.field);
}

/**
 * Sample a curve point deterministically: scan x = start, start+1, ...
 * until x^3 + b is a square; pick the lexicographically smaller root.
 * @p makeX maps a counter to a field element (injective on small ints).
 */
template <typename F>
AffinePt<F>
findPoint(const CurveCtx<F> &c, const BigInt &fieldOrder,
          const std::function<F(u64)> &makeX,
          const std::function<F()> &sample, u64 start = 1)
{
    for (u64 i = start; i < start + 100000; ++i) {
        const F x = makeX(i);
        const F rhs = x.sqr().mul(x).add(c.b);
        F y = rhs.zeroLike();
        if (!trySqrt<F>(rhs, fieldOrder, sample, y))
            continue;
        if (y.isZero())
            continue;
        // Canonical root: smaller flattened coefficient vector.
        std::vector<BigInt> a, b;
        y.toFpCoeffs(a);
        y.neg().toFpCoeffs(b);
        if (std::lexicographical_compare(b.begin(), b.end(), a.begin(),
                                         a.end()))
            y = y.neg();
        return AffinePt<F>::make(x, y);
    }
    panic("no curve point found");
}

} // namespace finesse

#endif // FINESSE_CURVE_POINT_H_
