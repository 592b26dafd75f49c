/**
 * @file
 * Unit and property tests for the BigInt substrate and Montgomery context.
 */
#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/mont.h"
#include "curve/catalog.h"
#include "support/rng.h"

namespace finesse {
namespace {

TEST(BigInt, ConstructAndRender)
{
    EXPECT_EQ(BigInt().toString(), "0");
    EXPECT_EQ(BigInt(u64{42}).toString(), "42");
    EXPECT_EQ(BigInt(i64{-42}).toString(), "-42");
    EXPECT_EQ(BigInt::fromString("123456789012345678901234567890").toString(),
              "123456789012345678901234567890");
    EXPECT_EQ(BigInt::fromString("-987").toString(), "-987");
    EXPECT_EQ(BigInt::fromString("0xff").toString(), "255");
    EXPECT_EQ(BigInt::fromString("0xff").toHexString(), "0xff");
    EXPECT_EQ(BigInt::fromString("-0x10").toString(), "-16");
}

TEST(BigInt, AdditionSigns)
{
    const BigInt a = BigInt::fromString("1000000000000000000000");
    const BigInt b = BigInt::fromString("999999999999999999999");
    EXPECT_EQ((a - b).toString(), "1");
    EXPECT_EQ((b - a).toString(), "-1");
    EXPECT_EQ((a + (-a)).toString(), "0");
    EXPECT_EQ(((-a) + (-b)).toString(), "-1999999999999999999999");
}

TEST(BigInt, MulKnownValue)
{
    const BigInt a = BigInt::fromString("123456789123456789123456789");
    const BigInt b = BigInt::fromString("987654321987654321");
    EXPECT_EQ((a * b).toString(),
              "121932631356500531469135800347203169112635269");
}

TEST(BigInt, KaratsubaMatchesSchoolbook)
{
    // Randomized differential across widths spanning the Karatsuba
    // threshold, including heavily unbalanced operand pairs.
    Rng rng(41);
    const int edge = static_cast<int>(kKaratsubaThresholdLimbs) * 64;
    const int sizes[] = {1,        63,       64,       65,
                         edge - 1, edge,     edge + 1, 2 * edge,
                         3 * edge, 4 * edge, 8 * edge};
    for (int abits : sizes) {
        for (int bbits : sizes) {
            BigInt a = BigInt::randomBits(rng, abits);
            BigInt b = BigInt::randomBits(rng, bbits);
            if (rng.below(2))
                a = -a;
            if (rng.below(2))
                b = -b;
            EXPECT_EQ(a * b, BigInt::mulSchoolbook(a, b))
                << abits << "x" << bbits;
        }
    }
    // All-ones operands maximize carry propagation in the z1 combine.
    const BigInt ones = (BigInt(u64{1}) << (4 * edge)) - BigInt(u64{1});
    EXPECT_EQ(ones * ones, BigInt::mulSchoolbook(ones, ones));
    EXPECT_EQ(ones * BigInt(u64{1}), ones);
    EXPECT_EQ((ones * BigInt()).toString(), "0");
}

TEST(BigInt, ShiftRoundTrip)
{
    const BigInt a = BigInt::fromString("0xdeadbeefcafebabe1234567890");
    for (int s : {1, 7, 63, 64, 65, 129, 200}) {
        EXPECT_EQ(((a << s) >> s), a) << "shift " << s;
    }
    EXPECT_EQ((BigInt(u64{1}) << 128).bitLength(), 129);
}

TEST(BigInt, DivmodProperty)
{
    Rng rng(7);
    for (int iter = 0; iter < 500; ++iter) {
        const int abits = 1 + static_cast<int>(rng.below(700));
        const int bbits = 1 + static_cast<int>(rng.below(700));
        BigInt a = BigInt::randomBits(rng, abits);
        BigInt b = BigInt::randomBits(rng, bbits);
        if (rng.below(2))
            a = -a;
        if (rng.below(2))
            b = -b;
        BigInt q, r;
        BigInt::divmod(a, b, q, r);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r.abs(), b.abs());
        // Truncated division: remainder sign follows dividend.
        if (!r.isZero()) {
            EXPECT_EQ(r.isNegative(), a.isNegative());
        }
    }
}

TEST(BigInt, DivmodHardCarryCases)
{
    // Divisor with top limb 0xffff... exercises the qhat correction path.
    const BigInt b = (BigInt(u64{1}) << 128) - BigInt(u64{1});
    const BigInt a = (BigInt(u64{1}) << 256) - BigInt(u64{1});
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);

    const BigInt c = (BigInt(u64{1}) << 192);
    BigInt::divmod(c, b, q, r);
    EXPECT_EQ(q * b + r, c);
    EXPECT_LT(r, b);
}

TEST(BigInt, ModEuclidean)
{
    const BigInt m(u64{7});
    EXPECT_EQ(BigInt(i64{-1}).mod(m).toString(), "6");
    EXPECT_EQ(BigInt(i64{-14}).mod(m).toString(), "0");
    EXPECT_EQ(BigInt(u64{15}).mod(m).toString(), "1");
}

TEST(BigInt, PowMod)
{
    const BigInt p = BigInt::fromString("1000000007");
    const BigInt a(u64{2});
    EXPECT_EQ(a.powMod(BigInt(u64{10}), p).toString(), "1024");
    // Fermat: a^(p-1) = 1 mod p
    EXPECT_EQ(a.powMod(p - BigInt(u64{1}), p).toString(), "1");
}

TEST(BigInt, GcdInvMod)
{
    Rng rng(11);
    const BigInt p = BigInt::fromString(
        "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
    for (int i = 0; i < 50; ++i) {
        const BigInt a = BigInt::randomBelow(rng, p - 1) + 1;
        const BigInt inv = a.invMod(p);
        EXPECT_EQ((a * inv).mod(p).toString(), "1");
    }
    EXPECT_EQ(BigInt::gcd(BigInt(u64{48}), BigInt(u64{36})).toString(), "12");
}

TEST(BigInt, Isqrt)
{
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        const BigInt a = BigInt::randomBits(rng, 1 + rng.below(500));
        const BigInt s = a.isqrt();
        EXPECT_LE(s * s, a);
        EXPECT_GT((s + 1) * (s + 1), a);
    }
    EXPECT_EQ(BigInt(u64{144}).isqrt().toString(), "12");
    EXPECT_EQ(BigInt(u64{145}).isqrt().toString(), "12");
}

TEST(BigInt, PrimalityKnownValues)
{
    EXPECT_TRUE(isProbablePrime(BigInt(u64{2})));
    EXPECT_TRUE(isProbablePrime(BigInt(u64{65537})));
    EXPECT_FALSE(isProbablePrime(BigInt(u64{1})));
    EXPECT_FALSE(isProbablePrime(BigInt(u64{65536})));
    // BN254 (SNARK) modulus is prime.
    EXPECT_TRUE(isProbablePrime(BigInt::fromString(
        "218882428718392752222464057452572750885483644004160343436982041865"
        "75808495617")));
    // A 256-bit Carmichael-ish composite: product of two primes.
    const BigInt c = BigInt::fromString("1000000007") *
                     BigInt::fromString("1000000009");
    EXPECT_FALSE(isProbablePrime(c));
}

/**
 * The Miller-Rabin test on BigInt::powMod, as the library ran it before
 * it moved to MontCtx: same trial division, seed, bases and rounds. The
 * oracle for isProbablePrime.
 */
bool
powModProbablePrime(const BigInt &n, int rounds = 40)
{
    if (n < BigInt(u64{2}))
        return false;
    static const u64 smallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23,
                                      29, 31, 37, 41, 43, 47, 53, 59, 61};
    for (u64 p : smallPrimes) {
        if (n == BigInt(p))
            return true;
        if ((n % BigInt(p)).isZero())
            return false;
    }
    const BigInt nm1 = n - BigInt(u64{1});
    BigInt d = nm1;
    int s = 0;
    while (d.isEven()) {
        d = d >> 1;
        ++s;
    }
    Rng rng(0x4d696c6c65725261ull);
    for (int round = 0; round < rounds; ++round) {
        const BigInt a =
            BigInt(u64{2}) + BigInt::randomBelow(rng, n - BigInt(u64{4}));
        BigInt x = a.powMod(d, n);
        if (x == BigInt(u64{1}) || x == nm1)
            continue;
        bool composite = true;
        for (int i = 0; i < s - 1; ++i) {
            x = (x * x).mod(n);
            if (x == nm1) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

TEST(Primality, MontgomeryMatchesPowModOracle)
{
    // {n, prime?}: Carmichael numbers 561 = 3 * 11 * 17 and 41041 =
    // 7 * 11 * 13 * 41 (trial division finds them) and 56052361 =
    // 211 * 421 * 631 (no factor up to 61, so Miller-Rabin must); the
    // strong pseudoprime to bases 2, 3, 5 and 7 3215031751 =
    // 151 * 751 * 28351; one-limb primes and composites.
    std::vector<std::pair<BigInt, bool>> cases = {
        {BigInt(u64{561}), false},
        {BigInt(u64{41041}), false},
        {BigInt(u64{56052361}), false},
        {BigInt(u64{3215031751}), false},
        {BigInt(u64{67}), true},
        {(BigInt(u64{1}) << 61) - BigInt(u64{1}), true},
        {BigInt(u64{0xffffffffffffffc5}), true}, // 2^64 - 59
        {BigInt(u64{4294967291}) * BigInt(u64{4294967279}), false},
    };
    for (const CurveDef &def : curveCatalog()) {
        const CurveInfo info = deriveCurveInfo(def);
        cases.emplace_back(info.p, true);
        cases.emplace_back(info.r, true);
    }
    // 640 bits: the first prime 2^639 + 3 + 4i, and a 639-bit product
    // of two 320-bit primes.
    BigInt p640 = (BigInt(u64{1}) << 639) + BigInt(u64{3});
    while (!isProbablePrime(p640))
        p640 = p640 + BigInt(u64{4});
    BigInt p320a = (BigInt(u64{1}) << 319) + BigInt(u64{1});
    while (!isProbablePrime(p320a))
        p320a = p320a + BigInt(u64{2});
    BigInt p320b = p320a + BigInt(u64{2});
    while (!isProbablePrime(p320b))
        p320b = p320b + BigInt(u64{2});
    cases.emplace_back(p640, true);
    cases.emplace_back(p320a * p320b, false);

    for (const auto &[n, prime] : cases) {
        EXPECT_EQ(isProbablePrime(n), prime) << n;
        EXPECT_EQ(isProbablePrime(n), powModProbablePrime(n)) << n;
        EXPECT_EQ(isProbablePrime(n, 3), powModProbablePrime(n, 3)) << n;
    }
    EXPECT_EQ(p640.bitLength(), 640);
    EXPECT_EQ((p320a * p320b).bitLength(), 639);
}

TEST(Primality, RefusesModulusWiderThan640Bits)
{
    const BigInt wide = (BigInt(u64{1}) << 640) + BigInt(u64{1});
    EXPECT_THROW(isProbablePrime(wide), FatalError);
    EXPECT_THROW(isProbablePrime(wide + BigInt(u64{1})), FatalError);
    // The widest accepted value: 2^640 - 1 = 3 * 5 * 17 * ... is composite.
    EXPECT_FALSE(isProbablePrime((BigInt(u64{1}) << 640) - BigInt(u64{1})));
}

TEST(BigInt, DivExact)
{
    const BigInt a = BigInt::fromString("123456789123456789");
    EXPECT_EQ((a * BigInt(u64{3})).divExact(BigInt(u64{3})), a);
    EXPECT_THROW(BigInt(u64{10}).divExact(BigInt(u64{3})), PanicError);
}

TEST(Mont, RoundTrip)
{
    const BigInt p = BigInt::fromString(
        "0x2523648240000001ba344d80000000086121000000000013a700000000000013");
    MontCtx ctx(p);
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        const BigInt v = BigInt::randomBelow(rng, p);
        EXPECT_EQ(ctx.fromMont(ctx.toMont(v)), v);
    }
}

TEST(Mont, MulMatchesBigInt)
{
    const BigInt p = BigInt::fromString(
        "0x2523648240000001ba344d80000000086121000000000013a700000000000013");
    MontCtx ctx(p);
    Rng rng(19);
    for (int i = 0; i < 200; ++i) {
        const BigInt a = BigInt::randomBelow(rng, p);
        const BigInt b = BigInt::randomBelow(rng, p);
        Residue r{};
        ctx.mul(r, ctx.toMont(a), ctx.toMont(b));
        EXPECT_EQ(ctx.fromMont(r), (a * b).mod(p));
    }
}

TEST(Mont, AddSubNeg)
{
    const BigInt p = (BigInt(u64{1}) << 127) - BigInt(u64{1}); // Mersenne
    ASSERT_TRUE(isProbablePrime(p));
    MontCtx ctx(p);
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        const BigInt a = BigInt::randomBelow(rng, p);
        const BigInt b = BigInt::randomBelow(rng, p);
        Residue r{};
        ctx.add(r, ctx.toMont(a), ctx.toMont(b));
        EXPECT_EQ(ctx.fromMont(r), (a + b).mod(p));
        ctx.sub(r, ctx.toMont(a), ctx.toMont(b));
        EXPECT_EQ(ctx.fromMont(r), (a - b).mod(p));
        ctx.neg(r, ctx.toMont(a));
        EXPECT_EQ(ctx.fromMont(r), (-a).mod(p));
    }
}

TEST(Mont, PowAndInv)
{
    const BigInt p = BigInt::fromString(
        "0x2523648240000001ba344d80000000086121000000000013a700000000000013");
    MontCtx ctx(p);
    Rng rng(29);
    for (int i = 0; i < 20; ++i) {
        const BigInt a = BigInt::randomBelow(rng, p - 1) + 1;
        const BigInt e = BigInt::randomBelow(rng, p);
        Residue r{};
        ctx.pow(r, ctx.toMont(a), e);
        EXPECT_EQ(ctx.fromMont(r), a.powMod(e, p));
        ctx.inv(r, ctx.toMont(a));
        EXPECT_EQ(ctx.fromMont(r), a.invMod(p));
    }
}

TEST(Mont, WideModulus640Bit)
{
    // 640-bit prime exercises the full kMaxLimbs width.
    BigInt p = (BigInt(u64{1}) << 639);
    // Find the next number == 3 mod 4 that is prime (deterministic search).
    p = p + BigInt(u64{3});
    while (!isProbablePrime(p))
        p = p + BigInt(u64{4});
    MontCtx ctx(p);
    EXPECT_EQ(ctx.limbCount(), kMaxLimbs);
    Rng rng(31);
    const BigInt a = BigInt::randomBelow(rng, p);
    const BigInt b = BigInt::randomBelow(rng, p);
    Residue r{};
    ctx.mul(r, ctx.toMont(a), ctx.toMont(b));
    EXPECT_EQ(ctx.fromMont(r), (a * b).mod(p));
}

TEST(Mont, RejectsBadModulus)
{
    EXPECT_THROW(MontCtx(BigInt(u64{10})), FatalError);
    EXPECT_THROW(MontCtx(BigInt(u64{1}) << 1030), FatalError);
    // Odd and one bit past the kMaxLimbs ceiling: too wide.
    EXPECT_THROW(MontCtx((BigInt(u64{1}) << 640) + BigInt(u64{1})),
                 FatalError);
}

} // namespace
} // namespace finesse
