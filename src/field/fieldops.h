/**
 * @file
 * Generic helpers shared by every field element type (native or
 * symbolic): small-scalar multiplication via linear-op chains and
 * exponentiation by arbitrary big integers. These correspond to the
 * paper's `muli` and `exp` IR operations: both lower to the linear/
 * multiplicative ISA ops at compile time since scalars and exponents are
 * curve constants. Native-only: batch inversion and the norm-based
 * k-th power residue test (powerResidue) of curve set-up.
 */
#ifndef FINESSE_FIELD_FIELDOPS_H_
#define FINESSE_FIELD_FIELDOPS_H_

#include <type_traits>
#include <vector>

#include "bigint/bigint.h"
#include "field/fp.h"
#include "support/common.h"

namespace finesse {

/**
 * a * k for a small integer k, expressed with linear operations only
 * (NEG/DBL/TPL/ADD/SUB chains) so that no modular multiplier is spent on
 * constant scaling. Works for any element type.
 */
template <typename F>
F
muliSmall(const F &a, i64 k)
{
    if (k < 0)
        return muliSmall(a, -k).neg();
    switch (k) {
      case 0:
        return a.zeroLike();
      case 1:
        return a;
      case 2:
        return a.dbl();
      case 3:
        return a.tpl();
      case 4:
        return a.dbl().dbl();
      case 5:
        return a.dbl().dbl().add(a);
      case 6:
        return a.tpl().dbl();
      case 8:
        return a.dbl().dbl().dbl();
      case 9:
        return a.tpl().tpl();
      case 12:
        return a.tpl().dbl().dbl();
      default:
        break;
    }
    // Binary double-and-add from the most significant bit.
    F acc = a;
    int top = 63 - __builtin_clzll(static_cast<u64>(k));
    for (int i = top - 1; i >= 0; --i) {
        acc = acc.dbl();
        if ((k >> i) & 1)
            acc = acc.add(a);
    }
    return acc;
}

/**
 * Batch inversion in place (Montgomery's trick) for any element type:
 * one inv() + 3(n-1) muls replace n inversions, with bit-identical
 * results (every intermediate is fully reduced, and the reduced
 * inverse is unique). Zero elements stay zero and are skipped by the
 * product chain. Fp lowers to the residue-level MontCtx::batchInv;
 * tower elements (G2 twist coordinates) run the same trick over their
 * own mul/inv.
 */
template <typename F>
void
batchInvInPlace(std::vector<F> &elems)
{
    if constexpr (std::is_same_v<F, Fp>) {
        Fp::batchInv(elems);
    } else {
        const size_t n = elems.size();
        if (n == 0)
            return;
        std::vector<F> prefix;
        prefix.reserve(n);
        F acc = elems[0].oneLike();
        for (size_t i = 0; i < n; ++i) {
            if (!elems[i].isZero())
                acc = acc.mul(elems[i]);
            prefix.push_back(acc);
        }
        F invAcc = acc.inv();
        for (size_t i = n; i-- > 0;) {
            if (elems[i].isZero())
                continue;
            const F orig = elems[i];
            elems[i] = i == 0 ? invAcc : invAcc.mul(prefix[i - 1]);
            invAcc = invAcc.mul(orig);
        }
    }
}

/** a^e by square-and-multiply for a non-negative big-integer exponent. */
template <typename F>
F
powBig(const F &a, const BigInt &e)
{
    FINESSE_CHECK(!e.isNegative(), "powBig: negative exponent");
    F result = a.oneLike();
    for (int i = e.bitLength(); i-- > 0;) {
        result = result.sqr();
        if (e.bit(i))
            result = result.mul(a);
    }
    return result;
}

/**
 * True when a^((|F| - 1)/k) = 1 in a's field F, i.e. when a is a nonzero
 * k-th power there. For F of degree d over a level K with |K| = Q,
 * a^((Q^d - 1)/k) = N(a)^((Q - 1)/k) whenever k | Q - 1, where N is the
 * norm from F to K. So the test recurses a -> N(a) down to Fp and ends
 * in one exponentiation by (p - 1)/k there, in place of one by
 * (p^deg - 1)/k in F. Requires k | p - 1 (then k | Q - 1 on every
 * level) and F and every level below it to be fields; tower validation
 * establishes each level before it tests an element of that level.
 */
template <typename F>
bool
powerResidue(const F &a, int k)
{
    if constexpr (std::is_same_v<F, Fp>) {
        const BigInt pm1 = a.fieldCtx()->modulus() - BigInt(u64{1});
        FINESSE_REQUIRE(k > 0 && (pm1 % BigInt(i64{k})).isZero(),
                        "powerResidue: k = ", k, " does not divide p - 1");
        return powBig(a, pm1.divExact(BigInt(i64{k}))).equals(a.oneLike());
    } else {
        return powerResidue(a.norm(), k);
    }
}

} // namespace finesse

#endif // FINESSE_FIELD_FIELDOPS_H_
