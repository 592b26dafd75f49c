/**
 * @file
 * G1 endomorphism scalar multiplication for the RLC batch verifier.
 *
 * Every catalog curve has j = 0 (y^2 = x^3 + b) over p = 1 mod 3, so
 * phi(x, y) = (beta x, y), beta a primitive cube root of unity in Fp,
 * is an endomorphism that acts on the order-r subgroup G1 as [lambda]
 * for a cube root of unity lambda mod r. A scalar written as the pair
 * (a, b) of 64-bit words stands for a + b lambda mod r, and
 *
 *     [a + b lambda] P = [a] P + [b] phi(P)
 *
 * costs one 64-bit ladder instead of a 128-bit one. No scalar is ever
 * decomposed: the RLC draws (a, b) directly. endoPairsInjective()
 * decides whether (a, b) -> a + b lambda mod r is injective on pairs
 * of 64-bit words (CurveSystem::endoScalarsInjective records it at
 * setup, the RLC verifier requires it).
 *
 * msmEndo() sums many such terms as one Straus multi-scalar
 * multiplication: width-4 NAF digits, one shared doubling per digit
 * position, and odd-multiple tables {P, 3P, 5P, 7P} normalized to
 * affine with ONE batch inversion across every group of the call, so
 * all additions are mixed Jacobian + affine. The phi-table entry of
 * an affine point is one field multiplication.
 *
 * phi = [lambda] holds only on G1: for a point outside the order-r
 * subgroup the result is some other point (no crash, no exception).
 * scalarMulJac (curve/point.h) is the differential oracle
 * (tests/test_msm.cpp).
 */
#ifndef FINESSE_CURVE_MSM_H_
#define FINESSE_CURVE_MSM_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "curve/point.h"

namespace finesse {

/** One term [a] P + [b] phi(P) of an endomorphism MSM. */
template <typename F>
struct EndoTerm
{
    AffinePt<F> point;
    u64 a = 0, b = 0;
};

/**
 * Squared Euclidean length of the shortest nonzero vector of the
 * lattice {(u, v) : u + v lambda = 0 mod r}, by Lagrange-Gauss
 * reduction of the basis (r, 0), (-lambda, 1).
 */
inline BigInt
endoLatticeShortestSq(const BigInt &lambda, const BigInt &r)
{
    struct Vec
    {
        BigInt u, v;
        BigInt dot(const Vec &o) const { return u * o.u + v * o.v; }
    };
    Vec b1{r, BigInt(u64{0})};
    Vec b2{-lambda.mod(r), BigInt(u64{1})};
    if (b1.dot(b1) > b2.dot(b2))
        std::swap(b1, b2);
    for (;;) {
        // b2 -= round(<b1, b2> / <b1, b1>) b1, rounding half up.
        const BigInt n1 = b1.dot(b1);
        const BigInt num = (b1.dot(b2) << 1) + n1;
        const BigInt den = n1 << 1;
        BigInt m = num / den;
        if (num.isNegative() && !(m * den == num))
            m = m - BigInt(u64{1}); // floor, not truncation
        b2 = Vec{b2.u - m * b1.u, b2.v - m * b1.v};
        if (b2.dot(b2) >= n1)
            return n1;
        std::swap(b1, b2);
    }
}

/**
 * True when (a, b) -> a + b lambda mod r is injective on pairs of
 * 64-bit words. Two pairs with one image differ by a nonzero vector
 * (u, v) of the lattice {(u, v) : u + v lambda = 0 mod r} with
 * |u|, |v| < 2^64, so of length below sqrt(2) 2^64 = 2^64.5. This
 * requires the shortest lattice vector to be at least 2^65.5 long,
 * one bit to spare.
 */
inline bool
endoPairsInjective(const BigInt &lambda, const BigInt &r)
{
    return endoLatticeShortestSq(lambda, r) >= (BigInt(u64{1}) << 131);
}

namespace detail {

/** Width-4 NAF of a 64-bit scalar: odd digits in [-7, 7], LSB first. */
struct Wnaf64
{
    std::array<signed char, 65> digit{};
    int len = 0;    ///< digits in use (0 for a zero scalar)
    int maxAbs = 0; ///< largest |digit| (0 for a zero scalar)
};

inline Wnaf64
wnaf64(u64 k)
{
    Wnaf64 w;
    u128 n = k; // k + 7 may pass 2^64
    while (n != 0) {
        int d = 0;
        if (n & 1) {
            d = static_cast<int>(n & 15);
            if (d > 8)
                d -= 16;
            if (d > 0)
                n -= static_cast<u64>(d);
            else
                n += static_cast<u64>(-d);
            w.maxAbs = std::max(w.maxAbs, std::abs(d));
        }
        assert(w.len < 65 && d >= -7 && d <= 7);
        w.digit[w.len++] = static_cast<signed char>(d);
        n >>= 1;
    }
    return w;
}

/** Odd-multiple table slots a NAF needs: |digit| = 2i + 1 uses slot i. */
inline int
wnafSlots(const Wnaf64 &w)
{
    return (w.maxAbs + 1) / 2;
}

} // namespace detail

/**
 * For each group g: sum over its terms of [a] P + [b] phi(P), with
 * phi(x, y) = (beta x, y). Points at infinity and (0, 0) scalars
 * contribute nothing; an empty group sums to infinity. Tables are
 * built only as far as each scalar's largest digit needs, so a term
 * with (a, b) = (1, 0) costs one mixed addition and no inversion.
 */
template <typename F>
std::vector<JacPt<F>>
msmEndo(const CurveCtx<F> &c, const F &beta,
        const std::vector<std::vector<EndoTerm<F>>> &groups)
{
    using detail::Wnaf64;
    struct Recoded
    {
        const EndoTerm<F> *term;
        Wnaf64 a, b;
        size_t slot = 0; ///< first entry in tab / phiTab
        int n = 0;       ///< entries: P, 3P, ... up to (2n - 1)P
    };

    // Recode every term; size its odd-multiple table.
    std::vector<std::vector<Recoded>> rec(groups.size());
    size_t slots = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
        for (const EndoTerm<F> &t : groups[g]) {
            if (t.point.infinity || (t.a == 0 && t.b == 0))
                continue;
            Recoded r{&t, detail::wnaf64(t.a), detail::wnaf64(t.b)};
            r.slot = slots;
            r.n = std::max(detail::wnafSlots(r.a), detail::wnafSlots(r.b));
            slots += static_cast<size_t>(r.n);
            rec[g].push_back(r);
        }
    }

    // Odd multiples (2i + 1) P for i >= 1, as 2 (iP) + P: 3P = 2P + P,
    // 5P = 2(2P) + P, 7P = 2(3P) + P. All of them convert to affine
    // in one batch inversion.
    std::vector<JacPt<F>> jac;
    std::vector<size_t> jacSlot;
    for (const auto &group : rec) {
        for (const Recoded &r : group) {
            if (r.n < 2)
                continue;
            const AffinePt<F> &p = r.term->point;
            const JacPt<F> twoP = jacDouble(JacPt<F>::fromAffine(p, c.field));
            const JacPt<F> threeP = jacAddAffine(twoP, p, c.field);
            jac.push_back(threeP);
            if (r.n > 2)
                jac.push_back(jacAddAffine(jacDouble(twoP), p, c.field));
            if (r.n > 3)
                jac.push_back(jacAddAffine(jacDouble(threeP), p, c.field));
            for (int i = 1; i < r.n; ++i)
                jacSlot.push_back(r.slot + static_cast<size_t>(i));
        }
    }
    std::vector<AffinePt<F>> tab(slots);
    const std::vector<AffinePt<F>> odd = jacToAffineBatch(jac, c.field);
    for (size_t i = 0; i < odd.size(); ++i)
        tab[jacSlot[i]] = odd[i];
    std::vector<AffinePt<F>> phiTab(slots);
    for (const auto &group : rec) {
        for (const Recoded &r : group) {
            tab[r.slot] = r.term->point;
            for (int i = 0; i < detail::wnafSlots(r.b); ++i) {
                const AffinePt<F> &q = tab[r.slot + static_cast<size_t>(i)];
                phiTab[r.slot + static_cast<size_t>(i)] =
                    q.infinity ? q : AffinePt<F>::make(q.x.mul(beta), q.y);
            }
        }
    }

    // Straus: one doubling per digit position, shared by the group.
    const auto addDigit = [&](JacPt<F> &acc, const AffinePt<F> *table,
                              const Wnaf64 &w, int i) {
        if (i >= w.len || w.digit[i] == 0)
            return;
        const int d = w.digit[i];
        const size_t idx = static_cast<size_t>((std::abs(d) - 1) / 2);
        assert(static_cast<int>(idx) < detail::wnafSlots(w));
        const AffinePt<F> &q = table[idx];
        acc = d > 0 ? jacAddAffine(acc, q, c.field)
                    : jacAddAffine(acc, q.negate(), c.field);
    };
    std::vector<JacPt<F>> sums;
    sums.reserve(groups.size());
    for (const auto &group : rec) {
        int len = 0;
        for (const Recoded &r : group)
            len = std::max({len, r.a.len, r.b.len});
        JacPt<F> acc =
            JacPt<F>::fromAffine(AffinePt<F>::atInfinity(), c.field);
        for (int i = len; i-- > 0;) {
            acc = jacDouble(acc);
            for (const Recoded &r : group) {
                addDigit(acc, &tab[r.slot], r.a, i);
                addDigit(acc, &phiTab[r.slot], r.b, i);
            }
        }
        sums.push_back(acc);
    }
    return sums;
}

} // namespace finesse

#endif // FINESSE_CURVE_MSM_H_
