/**
 * @file
 * Fixed-capacity little-endian limb kernels used by the Montgomery context.
 * All functions operate on runtime length @p n (number of active 64-bit
 * limbs) so a single compiled kernel serves every curve width, mirroring
 * the data-width parameterization of the Finesse hardware.
 */
#ifndef FINESSE_BIGINT_LIMBS_H_
#define FINESSE_BIGINT_LIMBS_H_

#include <cstddef>

#include "support/common.h"

namespace finesse {

/** Maximum supported base-field width: 10 limbs = 640 bits, the widest
 *  catalog prime (BN638, BLS12-638). Every residue stores this many
 *  limbs, so keep it no wider than the catalog needs. */
inline constexpr size_t kMaxLimbs = 10;

namespace limbs {

/** r = a + b, returns carry-out. */
inline u64
add(u64 *r, const u64 *a, const u64 *b, size_t n)
{
    u64 carry = 0;
    for (size_t i = 0; i < n; ++i) {
        const u128 t = static_cast<u128>(a[i]) + b[i] + carry;
        r[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    return carry;
}

/** r = a - b, returns borrow-out (0 or 1). */
inline u64
sub(u64 *r, const u64 *a, const u64 *b, size_t n)
{
    u64 borrow = 0;
    for (size_t i = 0; i < n; ++i) {
        const u128 t = static_cast<u128>(a[i]) - b[i] - borrow;
        r[i] = static_cast<u64>(t);
        borrow = static_cast<u64>(-(t >> 64)) & 1;
    }
    return borrow;
}

/** Compare: -1, 0, 1. */
inline int
cmp(const u64 *a, const u64 *b, size_t n)
{
    for (size_t i = n; i-- > 0;) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

/** r = 0. */
inline void
zero(u64 *r, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = 0;
}

/** r = a. */
inline void
copy(u64 *r, const u64 *a, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = a[i];
}

/** True when all limbs are zero. */
inline bool
isZero(const u64 *a, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (a[i])
            return false;
    }
    return true;
}

/** Conditionally subtract the modulus when r >= m (keeps r in [0, m)). */
inline void
condSubModulus(u64 *r, const u64 *m, size_t n, u64 extraCarry = 0)
{
    if (extraCarry || cmp(r, m, n) >= 0)
        sub(r, r, m, n);
}

} // namespace limbs

} // namespace finesse

#endif // FINESSE_BIGINT_LIMBS_H_
