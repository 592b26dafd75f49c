/**
 * @file
 * Differential tests for the fixed-limb Montgomery kernels
 * (bigint/montkernel.h) against the generic runtime-width oracle and the
 * BigInt reference, across every supported width and both vtable
 * flavors (spare-top-bit and general), including the Fp2 kernels and
 * the 4- and 6-limb ADX asm kernels.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/**
 * Odd modulus of @p w limbs whose top limb is exactly @p top, over random
 * odd low limbs. At w = 1 the top limb is the whole modulus, so an even
 * @p top is lowered by one.
 */
BigInt
topLimbModulus(Rng &rng, int w, u64 top)
{
    if (w == 1)
        return BigInt((top & 1) ? top : top - 1);
    return (BigInt(top) << (64 * (w - 1))) +
           randomOddModulus(rng, 64 * (w - 1));
}

/**
 * The two moduli at the boundary between the kernel tables: top limb
 * 2^63 - 1 (the general table, though the modulus has 64w - 1 bits) and
 * 2^63 - 2 (the spare-bit table at its tightest).
 */
std::vector<BigInt>
boundaryModuli(Rng &rng, int w)
{
    return {topLimbModulus(rng, w, (u64{1} << 63) - 1),
            topLimbModulus(rng, w, (u64{1} << 63) - 2)};
}

/** Raw residue (Montgomery-domain limbs) from a BigInt in [0, p). */
Residue
rawResidue(const MontCtx &ctx, const BigInt &v)
{
    Residue r{};
    v.toLimbs(r.data(), ctx.limbCount());
    return r;
}

/** Kernel constants for @p p, built independently of MontCtx. */
struct KernelConsts
{
    u64 p[kMaxLimbs] = {0};
    u64 pSquared[2 * kMaxLimbs] = {0};
    MontParams prm{};

    explicit KernelConsts(const BigInt &modulus)
    {
        const size_t n = (static_cast<size_t>(modulus.bitLength()) + 63) / 64;
        modulus.toLimbs(p, n);
        (modulus * modulus).toLimbs(pSquared, 2 * n);
        u64 inv = 1;
        for (int i = 0; i < 6; ++i)
            inv *= 2 - p[0] * inv;
        prm = {p, pSquared, ~inv + 1};
    }
};

/**
 * Call add/sub/neg/mul/sqr of table @p vt directly on one operand pair,
 * fresh and with the output aliased to an operand, against the generic
 * oracle.
 */
void
checkTable(const MontCtx &ctx, const KernelVTable &vt, const Residue &a,
           const Residue &b)
{
    const KernelConsts kc(ctx.modulus());
    Residue want{}, r{}, x{};
    ctx.addGeneric(want, a, b);
    vt.add(r.data(), a.data(), b.data(), kc.prm);
    EXPECT_EQ(r, want) << "table add";
    x = b;
    vt.add(x.data(), a.data(), x.data(), kc.prm);
    EXPECT_EQ(x, want) << "table add, r == b";

    ctx.subGeneric(want, a, b);
    vt.sub(r.data(), a.data(), b.data(), kc.prm);
    EXPECT_EQ(r, want) << "table sub";
    x = b;
    vt.sub(x.data(), a.data(), x.data(), kc.prm);
    EXPECT_EQ(x, want) << "table sub, r == b";

    ctx.negGeneric(want, a);
    vt.neg(r.data(), a.data(), kc.prm);
    EXPECT_EQ(r, want) << "table neg";

    ctx.mulGeneric(want, a, b);
    vt.mul(r.data(), a.data(), b.data(), kc.prm);
    EXPECT_EQ(r, want) << "table mul";
    x = a;
    vt.mul(x.data(), x.data(), b.data(), kc.prm);
    EXPECT_EQ(x, want) << "table mul, r == a";

    ctx.sqrGeneric(want, a);
    vt.sqr(r.data(), a.data(), kc.prm);
    EXPECT_EQ(r, want) << "table sqr";
    x = a;
    vt.sqr(x.data(), x.data(), kc.prm);
    EXPECT_EQ(x, want) << "table sqr, r == a";
}

/**
 * Check mul/sqr/add/sub/neg on one operand pair: the context's path and
 * the width's portable table (kernelVTable, which an ADX context
 * bypasses) must be bit-identical to the generic oracle, and the
 * context must match BigInt.
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

    checkTable(ctx, *kernelVTable(n, p.limb(n - 1)), a, b);
}

TEST(MontKernel, AllWidthsMatchOracleAndBigInt)
{
    Rng rng(101);
    for (int w = 1; w <= static_cast<int>(kMaxLimbs); ++w) {
        // One modulus with the top bit set (general-path vtable), one
        // with two spare top bits (spare-bit vtable; w=1 uses 2^61-1),
        // and the two at the boundary between the tables.
        std::vector<BigInt> mods = {
            randomOddModulus(rng, 64 * w),
            w == 1 ? (BigInt(u64{1}) << 61) - BigInt(u64{1})
                   : randomOddModulus(rng, 64 * w - 2),
        };
        for (const BigInt &p : boundaryModuli(rng, w))
            mods.push_back(p);
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
        EXPECT_EQ(kernelVTable(w, (u64{1} << 63) - 1), general)
            << "width " << w;
        EXPECT_EQ(kernelVTable(w, (u64{1} << 63) - 2), spare)
            << "width " << w;
    }
    EXPECT_EQ(kernelVTable(0, 1), nullptr);
    EXPECT_EQ(kernelVTable(kMaxLimbs + 1, 1), nullptr);
}

/** q * x mod p by repeated generic add/sub. */
Residue
mulSmallGeneric(const MontCtx &ctx, const Residue &x, i64 q)
{
    Residue acc{};
    for (i64 i = 0; i < (q < 0 ? -q : q); ++i) {
        if (q < 0)
            ctx.subGeneric(acc, acc, x);
        else
            ctx.addGeneric(acc, acc, x);
    }
    return acc;
}

/**
 * Check one Fp2 kernel pair on (a0 + a1 u), (b0 + b1 u) over
 * u^2 = q against the eager schoolbook formulas on the generic oracle:
 * fresh outputs, in-place outputs (x = x * y), outputs written over the
 * other operand with coefficients swapped, and mul(a, a) == sqr(a).
 */
template <typename Mul, typename Sqr>
void
checkFp2(const MontCtx &ctx, Mul mul, Sqr sqr, i64 q, const Residue &a0,
         const Residue &a1, const Residue &b0, const Residue &b1,
         const std::string &where)
{
    Residue t00{}, t11{}, t01{}, t10{};
    ctx.mulGeneric(t00, a0, b0);
    ctx.mulGeneric(t11, a1, b1);
    ctx.mulGeneric(t01, a0, b1);
    ctx.mulGeneric(t10, a1, b0);
    Residue want0{}, want1{};
    ctx.addGeneric(want0, t00, mulSmallGeneric(ctx, t11, q));
    ctx.addGeneric(want1, t01, t10);

    Residue r0{}, r1{};
    mul(r0, r1, a0, a1, b0, b1, q);
    EXPECT_EQ(r0, want0) << where;
    EXPECT_EQ(r1, want1) << where;

    Residue x0 = a0, x1 = a1;
    mul(x0, x1, x0, x1, b0, b1, q);
    EXPECT_EQ(x0, want0) << where << " in place";
    EXPECT_EQ(x1, want1) << where << " in place";

    Residue y0 = b0, y1 = b1;
    mul(y1, y0, a0, a1, y0, y1, q);
    EXPECT_EQ(y1, want0) << where << " over b, swapped";
    EXPECT_EQ(y0, want1) << where << " over b, swapped";

    Residue s00{}, s11{}, s01{};
    ctx.sqrGeneric(s00, a0);
    ctx.sqrGeneric(s11, a1);
    ctx.mulGeneric(s01, a0, a1);
    Residue sq0{}, sq1{};
    ctx.addGeneric(sq0, s00, mulSmallGeneric(ctx, s11, q));
    ctx.addGeneric(sq1, s01, s01);

    sqr(r0, r1, a0, a1, q);
    EXPECT_EQ(r0, sq0) << where << " sqr";
    EXPECT_EQ(r1, sq1) << where << " sqr";

    x0 = a0;
    x1 = a1;
    sqr(x0, x1, x0, x1, q);
    EXPECT_EQ(x0, sq0) << where << " sqr in place";
    EXPECT_EQ(x1, sq1) << where << " sqr in place";

    x0 = a0;
    x1 = a1;
    sqr(x1, x0, x0, x1, q);
    EXPECT_EQ(x1, sq0) << where << " sqr swapped";
    EXPECT_EQ(x0, sq1) << where << " sqr swapped";

    mul(r0, r1, a0, a1, a0, a1, q);
    EXPECT_EQ(r0, sq0) << where << " mul(a, a)";
    EXPECT_EQ(r1, sq1) << where << " mul(a, a)";
}

/** Edge operands (every mix of 0, 1, p-1) and random ones. */
template <typename Mul, typename Sqr>
void
checkFp2Operands(Rng &rng, const MontCtx &ctx, Mul mul, Sqr sqr, i64 q,
                 const std::string &where)
{
    const BigInt &p = ctx.modulus();
    const Residue edges[] = {Residue{}, rawResidue(ctx, BigInt(u64{1})),
                             rawResidue(ctx, p - BigInt(u64{1}))};
    for (const Residue &a0 : edges)
        for (const Residue &a1 : edges)
            for (const Residue &b0 : edges)
                for (const Residue &b1 : edges)
                    checkFp2(ctx, mul, sqr, q, a0, a1, b0, b1, where);
    for (int i = 0; i < 20; ++i) {
        Residue v[4];
        for (Residue &x : v)
            x = rawResidue(ctx, BigInt::randomBelow(rng, p));
        checkFp2(ctx, mul, sqr, q, v[0], v[1], v[2], v[3], where);
    }
}

/** Fp2 kernels through MontCtx: whatever table it picked. */
void
checkCtxFp2(Rng &rng, const MontCtx &ctx, i64 q, const std::string &where)
{
    checkFp2Operands(
        rng, ctx,
        [&](Residue &r0, Residue &r1, const Residue &a0, const Residue &a1,
            const Residue &b0, const Residue &b1, i64 qq) {
            ctx.fp2Mul(r0, r1, a0, a1, b0, b1, qq);
        },
        [&](Residue &r0, Residue &r1, const Residue &a0, const Residue &a1,
            i64 qq) { ctx.fp2Sqr(r0, r1, a0, a1, qq); },
        q, where + " ctx");
}

/** Non-residues -1 (every catalog field) and others (p = 1 mod 4). */
constexpr i64 kFp2Qs[] = {-1, -2, 3, 5, -11};

TEST(MontKernel, Fp2KernelsMatchGeneric)
{
    Rng rng(103);
    for (int w = 1; w <= static_cast<int>(kMaxLimbs); ++w) {
        // Two spare top bits (4p < R); one (R/4 < p < R/2: the lazy
        // kernels at their tightest bound, 2p < R); none (top bit set:
        // the reduced form); and the two at the boundary between the
        // tables.
        std::vector<BigInt> mods = {
            w == 1 ? (BigInt(u64{1}) << 61) - BigInt(u64{1})
                   : randomOddModulus(rng, 64 * w - 2),
            randomOddModulus(rng, 64 * w - 1),
            randomOddModulus(rng, 64 * w),
        };
        for (const BigInt &p : boundaryModuli(rng, w))
            mods.push_back(p);
        for (const BigInt &p : mods) {
            const MontCtx ctx(p);
            ASSERT_EQ(ctx.limbCount(), static_cast<size_t>(w));
            const KernelConsts kc(p);
            // The portable kernel, called directly.
            const KernelVTable *vt =
                kernelVTable(ctx.limbCount(), kc.p[w - 1]);
            for (const i64 q : kFp2Qs) {
                const std::string where = "width " + std::to_string(w) +
                                          " bits " +
                                          std::to_string(p.bitLength()) +
                                          " q " + std::to_string(q);
                checkFp2Operands(
                    rng, ctx,
                    [&](Residue &r0, Residue &r1, const Residue &a0,
                        const Residue &a1, const Residue &b0,
                        const Residue &b1, i64 qq) {
                        vt->fp2Mul(r0.data(), r1.data(), a0.data(),
                                   a1.data(), b0.data(), b1.data(), qq,
                                   kc.prm);
                    },
                    [&](Residue &r0, Residue &r1, const Residue &a0,
                        const Residue &a1, i64 qq) {
                        vt->fp2Sqr(r0.data(), r1.data(), a0.data(),
                                   a1.data(), qq, kc.prm);
                    },
                    q, where);
                checkCtxFp2(rng, ctx, q, where);
            }
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
/**
 * The spare-bit moduli of the ADX tests at width @p w (4 or 6): the
 * pairing base field (q = -1), a prime p = 1 mod 4 (q != -1), and a
 * modulus whose top limb is at the spare-bit boundary.
 */
std::vector<BigInt>
adxModuli(Rng &rng, int w)
{
    const BigInt boundary =
        (BigInt::fromString("0x7ffffffffffffffe") << (64 * (w - 1))) +
        randomOddModulus(rng, 64 * (w - 1) - 2);
    if (w == 4) {
        return {
            // BN254 base field.
            BigInt::fromString("0x2523648240000001ba344d8000000008612100"
                               "0000000013a700000000000013"),
            // alt_bn128 scalar field.
            BigInt::fromString("0x30644e72e131a029b85045b68181585d2833e8"
                               "4879b9709143e1f593f0000001"),
            boundary,
        };
    }
    return {
        // BLS12-381 base field.
        BigInt::fromString(
            "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0"
            "f6b0f6241eabfffeb153ffffb9feffffffffaaab"),
        // BLS12-377 base field.
        BigInt::fromString(
            "0x1ae3a4617c510eac63b05c06ca1493b1a22d9f300f5138f1ef3622fba"
            "094800170b5d44300000008508c00000000001"),
        boundary,
    };
}

/** Widths with a hand-scheduled ADX kernel set. */
constexpr int kAdxWidths[] = {4, 6};

TEST(MontKernel, AdxKernelMatchesGeneric)
{
    if (!cpuHasAdx())
        GTEST_SKIP() << "CPU lacks BMI2/ADX";
    Rng rng(113);
    for (const int w : kAdxWidths) {
        for (const BigInt &p : adxModuli(rng, w)) {
            SCOPED_TRACE(p.toHexString());
            MontCtx ctx(p);
            ASSERT_EQ(ctx.limbCount(), static_cast<size_t>(w));
            const KernelConsts kc(p);
            const auto mul = w == 4 ? &montMulAdx4 : &montMulAdx6;
            // Fresh output, r == a, r == b; and the square with r == a == b.
            auto check = [&](const Residue &a, const Residue &b) {
                Residue g{}, r{};
                ctx.mulGeneric(g, a, b);
                mul(r.data(), a.data(), b.data(), kc.prm);
                EXPECT_EQ(r, g);
                r = a;
                mul(r.data(), r.data(), b.data(), kc.prm);
                EXPECT_EQ(r, g) << "r == a";
                r = b;
                mul(r.data(), a.data(), r.data(), kc.prm);
                EXPECT_EQ(r, g) << "r == b";
                ctx.sqrGeneric(g, a);
                r = a;
                mul(r.data(), r.data(), r.data(), kc.prm);
                EXPECT_EQ(r, g) << "square in place";
            };
            const Residue edges[] = {Residue{},
                                     rawResidue(ctx, BigInt(u64{1})),
                                     rawResidue(ctx, p - BigInt(u64{1}))};
            for (const Residue &a : edges) {
                for (const Residue &b : edges)
                    check(a, b);
            }
            for (int i = 0; i < 2000; ++i) {
                check(rawResidue(ctx, BigInt::randomBelow(rng, p)),
                      rawResidue(ctx, BigInt::randomBelow(rng, p)));
            }
        }
    }
}

TEST(MontKernel, AdxFp2KernelsMatchGeneric)
{
    if (!cpuHasAdx())
        GTEST_SKIP() << "CPU lacks BMI2/ADX";
    Rng rng(127);
    for (const int w : kAdxWidths) {
        const auto fp2Mul = w == 4 ? &fp2MulAdx4 : &fp2MulAdx6;
        const auto fp2Sqr = w == 4 ? &fp2SqrAdx4 : &fp2SqrAdx6;
        for (const BigInt &p : adxModuli(rng, w)) {
            const MontCtx ctx(p);
            ASSERT_EQ(ctx.limbCount(), static_cast<size_t>(w));
            const KernelConsts kc(p);
            for (const i64 q : kFp2Qs) {
                const std::string where = "adx " + p.toHexString() +
                                          " q " + std::to_string(q);
                checkFp2Operands(
                    rng, ctx,
                    [&](Residue &r0, Residue &r1, const Residue &a0,
                        const Residue &a1, const Residue &b0,
                        const Residue &b1, i64 qq) {
                        fp2Mul(r0.data(), r1.data(), a0.data(), a1.data(),
                               b0.data(), b1.data(), qq, kc.prm);
                    },
                    [&](Residue &r0, Residue &r1, const Residue &a0,
                        const Residue &a1, i64 qq) {
                        fp2Sqr(r0.data(), r1.data(), a0.data(), a1.data(),
                               qq, kc.prm);
                    },
                    q, where);
                checkCtxFp2(rng, ctx, q, where);
            }
        }
    }
}

/**
 * add, sub and neg of an ADX context (the inline asm at 4 limbs, the
 * ADX table at 6) on one pair: checkOps, add(a, a), and every op with
 * its output aliased to an operand, against the generic oracle.
 */
void
checkAdxLinear(const MontCtx &ctx, const Residue &a, const Residue &b)
{
    checkOps(ctx, a, b);
    const BigInt av = BigInt::fromLimbs(a.data(), ctx.limbCount());
    Residue want{}, r{};
    ctx.add(r, a, a);
    ctx.addGeneric(want, a, a);
    EXPECT_EQ(r, want);
    EXPECT_EQ(BigInt::fromLimbs(r.data(), ctx.limbCount()),
              (av + av).mod(ctx.modulus()));

    ctx.addGeneric(want, a, b);
    r = a;
    ctx.add(r, r, b);
    EXPECT_EQ(r, want);
    r = b;
    ctx.add(r, a, r);
    EXPECT_EQ(r, want);

    ctx.subGeneric(want, a, b);
    r = a;
    ctx.sub(r, r, b);
    EXPECT_EQ(r, want);
    r = b;
    ctx.sub(r, a, r);
    EXPECT_EQ(r, want);

    ctx.negGeneric(want, a);
    r = a;
    ctx.neg(r, r);
    EXPECT_EQ(r, want);

    // The 6-limb ADX table, called directly: a context that fell back
    // to the portable table would pass the checks above.
    if (ctx.limbCount() == 6)
        checkTable(ctx, kAdx6KernelVTable, a, b);
}

TEST(MontKernel, AdxLinearOpsMatchGeneric)
{
    if (!cpuHasAdx())
        GTEST_SKIP() << "CPU lacks BMI2/ADX";
    Rng rng(131);
    for (const int w : kAdxWidths) {
        for (const BigInt &p : adxModuli(rng, w)) {
            SCOPED_TRACE(p.toHexString());
            const MontCtx ctx(p);
            ASSERT_EQ(ctx.limbCount(), static_cast<size_t>(w));
            const Residue zero{};
            const Residue edges[] = {zero, rawResidue(ctx, BigInt(u64{1})),
                                     rawResidue(ctx, p - BigInt(u64{1}))};
            for (const Residue &a : edges) {
                for (const Residue &b : edges)
                    checkAdxLinear(ctx, a, b);
            }
            Residue z = edges[1];
            ctx.neg(z, zero);
            EXPECT_TRUE(ctx.isZero(z));
            for (int i = 0; i < 2000; ++i) {
                checkAdxLinear(ctx,
                               rawResidue(ctx, BigInt::randomBelow(rng, p)),
                               rawResidue(ctx, BigInt::randomBelow(rng, p)));
            }
        }
    }
}
#endif

} // namespace
} // namespace finesse
