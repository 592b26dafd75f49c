/**
 * @file
 * MontCtx implementation: fixed-width kernel dispatch (construction-time
 * vtable selection), the generic runtime-width CIOS oracle, binary
 * extended-GCD inversion, and the Miller-Rabin primality test.
 */
#include "bigint/mont.h"

namespace finesse {

namespace {

/** -m^-1 mod 2^64 via Newton iteration on the low limb. */
u64
negInv64(u64 m)
{
    u64 inv = 1;
    for (int i = 0; i < 6; ++i)
        inv *= 2 - m * inv;
    return ~inv + 1; // -inv
}

/** True when a == 1 over n limbs. */
bool
isOneLimbs(const u64 *a, size_t n)
{
    if (a[0] != 1)
        return false;
    for (size_t i = 1; i < n; ++i) {
        if (a[i])
            return false;
    }
    return true;
}

/** Logical shift right by one bit; @p topBit (0/1) enters the msb. */
void
shr1(u64 *a, size_t n, u64 topBit)
{
    for (size_t i = 0; i + 1 < n; ++i)
        a[i] = (a[i] >> 1) | (a[i + 1] << 63);
    a[n - 1] = (a[n - 1] >> 1) | (topBit << 63);
}

/** x = x / 2 mod p (p odd): add p first when x is odd. */
void
halveMod(u64 *x, const u64 *p, size_t n)
{
    if (x[0] & 1) {
        const u64 carry = limbs::add(x, x, p, n);
        shr1(x, n, carry);
    } else {
        shr1(x, n, 0);
    }
}

/** x = (x - y) mod p for x, y in [0, p). */
void
subMod(u64 *x, const u64 *y, const u64 *p, size_t n)
{
    if (limbs::sub(x, x, y, n))
        limbs::add(x, x, p, n);
}

} // namespace

MontCtx::MontCtx(const BigInt &p) : p_(p)
{
    FINESSE_REQUIRE(p.isOdd() && p > BigInt(u64{2}),
                    "Montgomery modulus must be odd and > 2");
    n_ = (static_cast<size_t>(p.bitLength()) + 63) / 64;
    FINESSE_REQUIRE(n_ <= kMaxLimbs, "modulus too wide: ", p.bitLength(),
                    " bits");
    bits_ = p.bitLength();
    p.toLimbs(pLimbs_.data(), n_);
    n0inv_ = negInv64(pLimbs_[0]);
    vt_ = kernelVTable(n_, pLimbs_[n_ - 1]);
    FINESSE_CHECK(vt_ != nullptr, "no kernel for width ", n_);
#if FINESSE_HAVE_X86_ADX
    if (pLimbs_[n_ - 1] <= kSpareBitTopLimbMax && cpuHasAdx()) {
        if (n_ == 4)
            fast_ = FastPath::kAdx4;
        else if (n_ == 6)
            vt_ = &kAdx6KernelVTable;
    }
#endif
    (p * p).toLimbs(pSquared_.data(), 2 * n_);

    const BigInt r = BigInt(u64{1}) << static_cast<int>(64 * n_);
    r.mod(p).toLimbs(rModP_.data(), n_);
    (r * r).mod(p).toLimbs(r2ModP_.data(), n_);
}

// Compiled unconditionally (call sites are NDEBUG-gated in the header)
// so TUs built with and without NDEBUG link against the same library.
void
MontCtx::assertTailZero(const u64 *a) const
{
    for (size_t i = n_; i < kMaxLimbs; ++i)
        FINESSE_CHECK(a[i] == 0, "nonzero Residue tail limb ", i,
                      " (active width ", n_, ")");
}

Residue
MontCtx::toMont(const BigInt &v) const
{
    Residue tmp{};
    v.mod(p_).toLimbs(tmp.data(), n_);
    Residue out{};
    mul(out, tmp, r2ModP_);
    return out;
}

BigInt
MontCtx::fromMont(const Residue &a) const
{
    // Multiply by 1 (non-Montgomery) to divide by R.
    Residue oneRaw{};
    oneRaw[0] = 1;
    Residue out{};
    mul(out, a, oneRaw);
    return BigInt::fromLimbs(out.data(), n_);
}

void
MontCtx::addGeneric(Residue &r, const Residue &a, const Residue &b) const
{
    const u64 carry = limbs::add(r.data(), a.data(), b.data(), n_);
    limbs::condSubModulus(r.data(), pLimbs_.data(), n_, carry);
}

void
MontCtx::subGeneric(Residue &r, const Residue &a, const Residue &b) const
{
    const u64 borrow = limbs::sub(r.data(), a.data(), b.data(), n_);
    if (borrow)
        limbs::add(r.data(), r.data(), pLimbs_.data(), n_);
}

void
MontCtx::negGeneric(Residue &r, const Residue &a) const
{
    if (limbs::isZero(a.data(), n_)) {
        limbs::zero(r.data(), n_);
        return;
    }
    limbs::sub(r.data(), pLimbs_.data(), a.data(), n_);
}

void
MontCtx::mulGeneric(Residue &r, const Residue &a, const Residue &b) const
{
    // CIOS: interleaved multiply and Montgomery reduction.
    u64 t[kMaxLimbs + 2] = {0};
    const size_t n = n_;
    for (size_t i = 0; i < n; ++i) {
        // t += a[i] * b
        u64 carry = 0;
        const u64 ai = a[i];
        for (size_t j = 0; j < n; ++j) {
            const u128 s = static_cast<u128>(ai) * b[j] + t[j] + carry;
            t[j] = static_cast<u64>(s);
            carry = static_cast<u64>(s >> 64);
        }
        u128 s = static_cast<u128>(t[n]) + carry;
        t[n] = static_cast<u64>(s);
        t[n + 1] = static_cast<u64>(s >> 64);

        // Reduce: m = t[0] * n0inv; t += m * p; t >>= 64.
        const u64 m = t[0] * n0inv_;
        u128 acc = static_cast<u128>(m) * pLimbs_[0] + t[0];
        carry = static_cast<u64>(acc >> 64);
        for (size_t j = 1; j < n; ++j) {
            acc = static_cast<u128>(m) * pLimbs_[j] + t[j] + carry;
            t[j - 1] = static_cast<u64>(acc);
            carry = static_cast<u64>(acc >> 64);
        }
        s = static_cast<u128>(t[n]) + carry;
        t[n - 1] = static_cast<u64>(s);
        t[n] = t[n + 1] + static_cast<u64>(s >> 64);
        t[n + 1] = 0;
    }
    for (size_t i = 0; i < n; ++i)
        r[i] = t[i];
    limbs::condSubModulus(r.data(), pLimbs_.data(), n, t[n]);
}

void
MontCtx::pow(Residue &r, const Residue &a, const BigInt &e) const
{
    FINESSE_REQUIRE(!e.isNegative(), "negative exponent in MontCtx::pow");
    Residue result{};
    limbs::copy(result.data(), rModP_.data(), n_); // Montgomery one
    Residue base{};
    limbs::copy(base.data(), a.data(), n_);
    for (int i = e.bitLength(); i-- > 0;) {
        sqr(result, result);
        if (e.bit(i))
            mul(result, result, base);
    }
    r = result;
}

void
MontCtx::invFermat(Residue &r, const Residue &a) const
{
    pow(r, a, p_ - BigInt(u64{2}));
}

void
MontCtx::inv(Residue &r, const Residue &a) const
{
    checkTail(a.data());
    if (isZero(a)) {
        limbs::zero(r.data(), n_);
        return;
    }
    // Binary extended GCD on (aR, p) for odd p. Invariants:
    //   x1 * aR == u (mod p),  x2 * aR == v (mod p)
    // so when u (or v) reaches 1, x1 (or x2) is (aR)^-1 = a^-1 R^-1.
    const size_t n = n_;
    const u64 *p = pLimbs_.data();
    u64 u[kMaxLimbs], v[kMaxLimbs], x1[kMaxLimbs], x2[kMaxLimbs];
    limbs::copy(u, a.data(), n);
    limbs::copy(v, p, n);
    limbs::zero(x1, n);
    x1[0] = 1;
    limbs::zero(x2, n);

    while (!isOneLimbs(u, n) && !isOneLimbs(v, n)) {
        while ((u[0] & 1) == 0) {
            shr1(u, n, 0);
            halveMod(x1, p, n);
        }
        while ((v[0] & 1) == 0) {
            shr1(v, n, 0);
            halveMod(x2, p, n);
        }
        if (limbs::cmp(u, v, n) >= 0) {
            limbs::sub(u, u, v, n);
            subMod(x1, x2, p, n);
        } else {
            limbs::sub(v, v, u, n);
            subMod(x2, x1, p, n);
        }
        if (limbs::isZero(u, n) || limbs::isZero(v, n)) {
            // gcd(a, p) != 1 (composite modulus): no inverse exists.
            // Zero is the documented degenerate result.
            limbs::zero(r.data(), n);
            return;
        }
    }

    Residue y{};
    limbs::copy(y.data(), isOneLimbs(u, n) ? x1 : x2, n);
    // y = a^-1 R^-1; two Montgomery multiplications by R^2 yield a^-1 R.
    mul(r, y, r2ModP_);
    mul(r, r, r2ModP_);
}

void
MontCtx::batchInv(Residue *r, const Residue *a, size_t n) const
{
    if (n == 0)
        return;
    // Montgomery's trick. prefix[i] carries the running product of
    // the NONZERO inputs a[0..i]; zeros are skipped so they cannot
    // zero out the whole chain (each still yields inv(0) == 0 below,
    // matching the scalar inv contract).
    std::vector<Residue> prefix(n);
    Residue acc = one();
    for (size_t i = 0; i < n; ++i) {
        if (!isZero(a[i])) {
            // Zero-init: mul only writes the low limbCount() limbs,
            // and these structs get copied whole (acc -> prefix,
            // invAcc -> r[0] below) -- garbage upper limbs would
            // break bit-identity with scalar inv().
            Residue next{};
            mul(next, acc, a[i]);
            acc = next;
        }
        prefix[i] = acc;
    }
    // One inversion of the total product, then walk back: on entry to
    // step i, invAcc is the inverse of the nonzero product a[0..i],
    // so multiplying by the product BEFORE i isolates a[i]^-1. Every
    // intermediate is a fully-reduced residue product, so each result
    // is the unique reduced inverse -- bit-identical to scalar inv.
    Residue invAcc{};
    inv(invAcc, acc);
    for (size_t i = n; i-- > 0;) {
        if (isZero(a[i])) {
            r[i] = Residue{};
            continue;
        }
        const Residue ai = a[i]; // copy first: r may alias a
        if (i == 0) {
            r[i] = invAcc;
        } else {
            r[i] = Residue{};
            mul(r[i], invAcc, prefix[i - 1]);
        }
        Residue next{};
        mul(next, invAcc, ai);
        invAcc = next;
    }
}

bool
isProbablePrime(const BigInt &n, int rounds)
{
    if (n < BigInt(u64{2}))
        return false;
    FINESSE_REQUIRE(n.bitLength() <= static_cast<int>(64 * kMaxLimbs),
                    "isProbablePrime: modulus too wide: ", n.bitLength(),
                    " bits");
    static const u64 smallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23,
                                      29, 31, 37, 41, 43, 47, 53, 59, 61};
    for (u64 p : smallPrimes) {
        if (n == BigInt(p))
            return true;
        if ((n % BigInt(p)).isZero())
            return false;
    }
    // n is odd and above 61 here. Write n - 1 = d * 2^s.
    const BigInt nm1 = n - BigInt(u64{1});
    BigInt d = nm1;
    int s = 0;
    while (d.isEven()) {
        d = d >> 1;
        ++s;
    }
    const MontCtx ctx(n);
    const Residue minusOne = ctx.toMont(nm1);
    Rng rng(0x4d696c6c65725261ull); // fixed seed: deterministic testing
    for (int round = 0; round < rounds; ++round) {
        const BigInt a =
            BigInt(u64{2}) + BigInt::randomBelow(rng, n - BigInt(u64{4}));
        Residue x{};
        ctx.pow(x, ctx.toMont(a), d);
        if (ctx.equal(x, ctx.one()) || ctx.equal(x, minusOne))
            continue;
        bool composite = true;
        for (int i = 0; i < s - 1; ++i) {
            ctx.sqr(x, x);
            if (ctx.equal(x, minusOne)) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

} // namespace finesse
