/**
 * @file
 * Generic Tonelli-Shanks square root over any (native) finite field
 * element type. Used by the curve module to sample points on E(Fp) and
 * on the twist E'(Fp^(k/6)). Setup-time only; never traced/compiled.
 *
 * Both Legendre tests (on the input and on each non-residue candidate)
 * go through powerResidue (field/fieldops.h), which takes norms down to
 * Fp instead of exponentiating in the extension; a itself is
 * exponentiated once, by (t - 1)/2.
 */
#ifndef FINESSE_FIELD_SQRT_H_
#define FINESSE_FIELD_SQRT_H_

#include <functional>

#include "bigint/bigint.h"
#include "field/fieldops.h"

namespace finesse {

/**
 * Compute a square root of @p a in a field of order @p q (Tonelli-
 * Shanks). @p sample produces random field elements used to locate a
 * quadratic non-residue; it is called until the first nonzero
 * non-residue, at most 256 times.
 *
 * @return true and set @p out when a root exists; false otherwise.
 */
template <typename F>
bool
trySqrt(const F &a, const BigInt &q, const std::function<F()> &sample,
        F &out)
{
    if (a.isZero()) {
        out = a;
        return true;
    }
    if (!powerResidue(a, 2))
        return false; // non-residue

    // q - 1 = t * 2^s with t odd.
    BigInt t = q - BigInt(u64{1});
    int s = 0;
    while (t.isEven()) {
        t = t >> 1;
        ++s;
    }

    // Find a quadratic non-residue z.
    const F one = a.oneLike();
    F z = one;
    bool found = false;
    for (int tries = 0; tries < 256 && !found; ++tries) {
        const F cand = sample();
        if (!cand.isZero() && !powerResidue(cand, 2)) {
            z = cand;
            found = true;
        }
    }
    FINESSE_CHECK(found, "no quadratic non-residue found");

    // w = a^((t-1)/2); then x = w a = a^((t+1)/2) and b = w x = a^t.
    const F w = powBig(a, t >> 1);
    F x = w.mul(a);
    F b = w.mul(x);
    F c = powBig(z, t);
    int m = s;
    while (!b.equals(one)) {
        // Find least i with b^(2^i) = 1.
        int i = 0;
        F probe = b;
        while (!probe.equals(one)) {
            probe = probe.sqr();
            ++i;
            FINESSE_CHECK(i < m, "Tonelli-Shanks failed to converge");
        }
        F e = c;
        for (int j = 0; j < m - i - 1; ++j)
            e = e.sqr();
        x = x.mul(e);
        c = e.sqr();
        b = b.mul(c);
        m = i;
    }
    out = x;
    return true;
}

} // namespace finesse

#endif // FINESSE_FIELD_SQRT_H_
