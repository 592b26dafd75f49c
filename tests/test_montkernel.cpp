/**
 * @file
 * Differential tests for the fixed-limb Montgomery kernels
 * (bigint/montkernel.h) against the generic runtime-width oracle and the
 * BigInt reference, across every supported width and both vtable
 * flavors (spare-top-bit and general).
 */
#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/mont.h"
#include "support/rng.h"

namespace finesse {
namespace {

/** Random odd modulus of exactly @p bits bits. */
BigInt
randomOddModulus(Rng &rng, int bits)
{
    BigInt p = BigInt::randomBits(rng, bits);
    if (p.isEven())
        p = p + BigInt(u64{1});
    return p;
}

/** Raw residue (Montgomery-domain limbs) from a BigInt in [0, p). */
Residue
rawResidue(const MontCtx &ctx, const BigInt &v)
{
    Residue r{};
    v.toLimbs(r.data(), ctx.limbCount());
    return r;
}

/**
 * Check mul/sqr/add/sub/neg on one operand pair: the kernel path must be
 * bit-identical to the generic oracle, and both must match BigInt.
 */
void
checkOps(const MontCtx &ctx, const Residue &a, const Residue &b)
{
    const BigInt &p = ctx.modulus();
    const size_t n = ctx.limbCount();
    const BigInt av = BigInt::fromLimbs(a.data(), n);
    const BigInt bv = BigInt::fromLimbs(b.data(), n);
    const BigInt r = BigInt(u64{1}) << static_cast<int>(64 * n);
    const BigInt rInv = r.mod(p).invMod(p);

    Residue k{}, g{};
    ctx.mul(k, a, b);
    ctx.mulGeneric(g, a, b);
    EXPECT_EQ(k, g);
    EXPECT_EQ(BigInt::fromLimbs(k.data(), n), (av * bv * rInv).mod(p));

    ctx.sqr(k, a);
    ctx.sqrGeneric(g, a);
    EXPECT_EQ(k, g);
    EXPECT_EQ(BigInt::fromLimbs(k.data(), n), (av * av * rInv).mod(p));

    ctx.add(k, a, b);
    ctx.addGeneric(g, a, b);
    EXPECT_EQ(k, g);
    EXPECT_EQ(BigInt::fromLimbs(k.data(), n), (av + bv).mod(p));

    ctx.sub(k, a, b);
    ctx.subGeneric(g, a, b);
    EXPECT_EQ(k, g);
    EXPECT_EQ(BigInt::fromLimbs(k.data(), n), (av - bv).mod(p));

    ctx.neg(k, a);
    ctx.negGeneric(g, a);
    EXPECT_EQ(k, g);
    EXPECT_EQ(BigInt::fromLimbs(k.data(), n), (-av).mod(p));

    // In-place aliasing: r == a.
    Residue ka = a;
    ctx.mul(ka, ka, b);
    ctx.mulGeneric(g, a, b);
    EXPECT_EQ(ka, g);
}

TEST(MontKernel, AllWidthsMatchOracleAndBigInt)
{
    Rng rng(101);
    for (int w = 1; w <= static_cast<int>(kMaxLimbs); ++w) {
        // One modulus with the top bit set (general-path vtable) and one
        // with two spare top bits (spare-bit vtable; w=1 uses 2^61-1).
        BigInt mods[2];
        mods[0] = randomOddModulus(rng, 64 * w);
        mods[1] = w == 1 ? (BigInt(u64{1}) << 61) - BigInt(u64{1})
                         : randomOddModulus(rng, 64 * w - 2);
        for (const BigInt &p : mods) {
            if (p <= BigInt(u64{2}))
                continue;
            MontCtx ctx(p);
            ASSERT_EQ(ctx.limbCount(), static_cast<size_t>(w));
            // Edge residues: 0, 1, p-1; then random pairs.
            const Residue zero{};
            const Residue one = rawResidue(ctx, BigInt(u64{1}));
            const Residue top = rawResidue(ctx, p - BigInt(u64{1}));
            checkOps(ctx, zero, top);
            checkOps(ctx, one, one);
            checkOps(ctx, top, top);
            for (int i = 0; i < 10; ++i) {
                const Residue a =
                    rawResidue(ctx, BigInt::randomBelow(rng, p));
                const Residue b =
                    rawResidue(ctx, BigInt::randomBelow(rng, p));
                checkOps(ctx, a, b);
            }
        }
    }
}

TEST(MontKernel, VTableSelection)
{
    // Same width, different top limb: spare-bit and general moduli must
    // pick different kernel tables, and both must exist for all widths.
    for (size_t w = 1; w <= kMaxLimbs; ++w) {
        const KernelVTable *general = kernelVTable(w, u64{1} << 63);
        const KernelVTable *spare = kernelVTable(w, kSpareBitTopLimbMax);
        ASSERT_NE(general, nullptr);
        ASSERT_NE(spare, nullptr);
        EXPECT_NE(general, spare) << "width " << w;
    }
    EXPECT_EQ(kernelVTable(0, 1), nullptr);
    EXPECT_EQ(kernelVTable(kMaxLimbs + 1, 1), nullptr);
}

TEST(MontKernel, SumOfProductsMatchesGeneric)
{
    Rng rng(103);
    for (int w : {2, 3, 4, 6, 7, 8, 10}) {
        for (int spareBits : {0, 2}) {
            const BigInt p = randomOddModulus(rng, 64 * w - spareBits);
            MontCtx ctx(p);
            for (int iter = 0; iter < 40; ++iter) {
                const size_t count = 1 + rng.below(8);
                Residue vals[8];
                MontTerm terms[8];
                for (size_t i = 0; i < count; ++i)
                    vals[i] = rawResidue(ctx, BigInt::randomBelow(rng, p));
                for (size_t i = 0; i < count; ++i) {
                    // Coefficients in [-5, 5]: |nu| = 5 type towers, and
                    // zero terms must be skipped identically. a == b
                    // sometimes, to hit the internal squaring path.
                    terms[i].a = vals[i].data();
                    terms[i].b = rng.below(3) == 0
                                     ? vals[i].data()
                                     : vals[rng.below(count)].data();
                    terms[i].coeff = static_cast<i64>(rng.below(11)) - 5;
                }
                Residue lazy{}, eager{};
                ctx.sumOfProducts(lazy, terms, count);
                ctx.sumOfProductsGeneric(eager, terms, count);
                EXPECT_EQ(lazy, eager) << "width " << w << " iter " << iter;
            }
            // Worst-case accumulation: all terms (p-1)^2 with coeff -5
            // drives the montRedc correction loop through multiple
            // subtractions of p.
            Residue top = rawResidue(ctx, p - BigInt(u64{1}));
            MontTerm worst[8];
            for (auto &t : worst)
                t = {top.data(), top.data(), -5};
            Residue lazy{}, eager{};
            ctx.sumOfProducts(lazy, worst, 8);
            ctx.sumOfProductsGeneric(eager, worst, 8);
            EXPECT_EQ(lazy, eager) << "width " << w;
        }
    }
}

TEST(MontKernel, InvMatchesFermatAndBigInt)
{
    // Known primes spanning widths 2, 4, 6.
    const BigInt primes[] = {
        (BigInt(u64{1}) << 127) - BigInt(u64{1}), // Mersenne, 2 limbs
        BigInt::fromString("0x2523648240000001ba344d80000000086121000000"
                           "000013a700000000000013"), // BN254, 4 limbs
        BigInt::fromString(
            "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0"
            "f6b0f6241eabfffeb153ffffb9feffffffffaaab"), // BLS12-381, 6
    };
    Rng rng(107);
    for (const BigInt &p : primes) {
        MontCtx ctx(p);
        Residue r{};
        ctx.inv(r, Residue{});
        EXPECT_TRUE(ctx.isZero(r)) << "inv(0) must be 0";
        for (int i = 0; i < 25; ++i) {
            const BigInt a = BigInt::randomBelow(rng, p - 1) + 1;
            const Residue am = ctx.toMont(a);
            Residue fermat{};
            ctx.inv(r, am);
            ctx.invFermat(fermat, am);
            EXPECT_EQ(r, fermat);
            EXPECT_EQ(ctx.fromMont(r), a.invMod(p));
        }
    }
}

TEST(MontKernel, InvAllWidthsAgainstBigInt)
{
    // Odd (possibly composite) moduli cover every width cheaply: the
    // xgcd inverse only needs gcd(a, m) == 1, which we enforce.
    Rng rng(109);
    for (int w = 1; w <= static_cast<int>(kMaxLimbs); ++w) {
        const BigInt m = randomOddModulus(rng, 64 * w);
        MontCtx ctx(m);
        for (int i = 0; i < 8; ++i) {
            BigInt a = BigInt::randomBelow(rng, m - 1) + 1;
            while (BigInt::gcd(a, m) != BigInt(u64{1}))
                a = BigInt::randomBelow(rng, m - 1) + 1;
            Residue r{};
            ctx.inv(r, ctx.toMont(a));
            EXPECT_EQ(ctx.fromMont(r), a.invMod(m)) << "width " << w;
        }
    }
}

TEST(MontKernel, InvNonCoprimeYieldsZero)
{
    // m = p127 * 3: sharing the factor p127 means no inverse exists and
    // the documented degenerate result is zero.
    const BigInt p127 = (BigInt(u64{1}) << 127) - BigInt(u64{1});
    const BigInt m = p127 * BigInt(u64{3});
    MontCtx ctx(m);
    Residue r{};
    ctx.inv(r, ctx.toMont(p127));
    EXPECT_TRUE(ctx.isZero(r));
}

TEST(MontKernel, BatchInvMatchesScalarInv)
{
    // Montgomery's trick must be BIT-identical to per-element inv():
    // every intermediate is a fully-reduced residue and the reduced
    // inverse is unique. Covers zeros in the batch (stay zero without
    // poisoning the product chain), in-place aliasing, and the empty/
    // singleton edges, across widths 2/4/6.
    const BigInt primes[] = {
        (BigInt(u64{1}) << 127) - BigInt(u64{1}),
        BigInt::fromString("0x2523648240000001ba344d80000000086121000000"
                           "000013a700000000000013"),
        BigInt::fromString(
            "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0"
            "f6b0f6241eabfffeb153ffffb9feffffffffaaab"),
    };
    Rng rng(113);
    for (const BigInt &p : primes) {
        MontCtx ctx(p);
        for (const size_t n : {size_t{0}, size_t{1}, size_t{2},
                               size_t{17}}) {
            std::vector<Residue> a(n);
            for (size_t i = 0; i < n; ++i)
                a[i] = ctx.toMont(BigInt::randomBelow(rng, p));
            if (n >= 3) {
                a[0] = Residue{};
                a[n / 2] = Residue{};
            }
            std::vector<Residue> out(n);
            ctx.batchInv(out.data(), a.data(), n);
            for (size_t i = 0; i < n; ++i) {
                Residue ref{};
                ctx.inv(ref, a[i]);
                EXPECT_EQ(out[i], ref) << "index " << i;
            }
            std::vector<Residue> alias = a;
            ctx.batchInv(alias.data(), alias.data(), n);
            EXPECT_EQ(alias, out);
        }
        std::vector<Residue> zeros(5);
        std::vector<Residue> zout(5);
        ctx.batchInv(zout.data(), zeros.data(), zeros.size());
        for (const Residue &z : zout)
            EXPECT_TRUE(ctx.isZero(z));
    }
}

#if FINESSE_HAVE_X86_ADX
TEST(MontKernel, AdxKernelMatchesGeneric)
{
    if (!cpuHasAdx())
        GTEST_SKIP() << "CPU lacks BMI2/ADX";
    Rng rng(113);
    // Spare-top-bit 4-limb moduli, including one with the top limb right
    // at the spare-bit boundary.
    const BigInt mods[] = {
        BigInt::fromString("0x2523648240000001ba344d80000000086121000000"
                           "000013a700000000000013"),
        (BigInt::fromString("0x7ffffffffffffffe") << 192) +
            randomOddModulus(rng, 190),
    };
    for (const BigInt &p : mods) {
        MontCtx ctx(p);
        ASSERT_EQ(ctx.limbCount(), 4u);
        u64 pl[4], n0inv;
        p.toLimbs(pl, 4);
        {
            u64 inv = 1;
            for (int i = 0; i < 6; ++i)
                inv *= 2 - pl[0] * inv;
            n0inv = ~inv + 1;
        }
        for (int i = 0; i < 2000; ++i) {
            const Residue a = rawResidue(ctx, BigInt::randomBelow(rng, p));
            const Residue b = rawResidue(ctx, BigInt::randomBelow(rng, p));
            Residue asmR{}, g{};
            montMulAdx4(asmR.data(), a.data(), b.data(), pl, n0inv);
            ctx.mulGeneric(g, a, b);
            EXPECT_EQ(asmR, g);
        }
    }
}
#endif

} // namespace
} // namespace finesse
