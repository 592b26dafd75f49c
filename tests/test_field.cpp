/**
 * @file
 * Tests for the extension-field operator kit: field axioms on every
 * tower level, equivalence of all operator variants, Frobenius
 * correctness, and tower parameter validation.
 */
#include <gtest/gtest.h>

#include "curve/catalog.h"
#include "field/fieldops.h"
#include "field/sqrt.h"
#include "field/tower.h"
#include "pairing/chains.h"
#include "support/rng.h"

namespace finesse {
namespace {

// BN254 (SNARK / Nogami flavor irrelevant here: any p = 1 mod 6 prime
// with a valid tower works for field-level tests).
const char *kP254 =
    "0x2523648240000001ba344d80000000086121000000000013a700000000000013";

class FieldTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        p_ = BigInt::fromString(kP254);
        fp_ = std::make_unique<FpCtx>(p_);
        i64 q, x0, x1;
        searchTowerNonResidues(p_, q, x0, x1);
        prm_ = computeTowerParams(p_, 12, q, x0, x1);
        tower_ = std::make_unique<NativeTower12>();
        buildTower(*tower_, fp_.get(), prm_, VariantConfig{});
    }

    Fp
    randFp()
    {
        return Fp::fromBig(fp_.get(), BigInt::randomBelow(rng_, p_));
    }

    Fp2
    randFp2()
    {
        return {randFp(), randFp(), &tower_->fp2};
    }

    Fp6
    randFp6()
    {
        return {randFp2(), randFp2(), randFp2(), &tower_->fp6};
    }

    Fp12
    randFp12()
    {
        return {randFp6(), randFp6(), &tower_->fp12};
    }

    BigInt p_;
    std::unique_ptr<FpCtx> fp_;
    TowerParams prm_;
    std::unique_ptr<NativeTower12> tower_;
    Rng rng_{101};
};

TEST_F(FieldTest, FpBasics)
{
    const Fp a = randFp();
    const Fp b = randFp();
    EXPECT_TRUE(a.add(b).equals(b.add(a)));
    EXPECT_TRUE(a.sub(a).isZero());
    EXPECT_TRUE(a.dbl().equals(a.add(a)));
    EXPECT_TRUE(a.tpl().equals(a.add(a).add(a)));
    EXPECT_TRUE(a.mul(a.inv()).equals(Fp::one(fp_.get())));
    EXPECT_TRUE(a.halve().dbl().equals(a));
    EXPECT_TRUE(muliSmall(a, 7).equals(
        a.add(a).add(a).add(a).add(a).add(a).add(a)));
    EXPECT_TRUE(muliSmall(a, -5).equals(muliSmall(a, 5).neg()));
    EXPECT_TRUE(muliSmall(a, 0).isZero());
}

/**
 * batchInvInPlace must match per-element inv() exactly on every
 * element, with zeros passing through untouched.
 */
template <typename F>
void
checkBatchInv(const std::vector<F> &elems)
{
    std::vector<F> batch = elems;
    batchInvInPlace(batch);
    ASSERT_EQ(batch.size(), elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
        if (elems[i].isZero())
            EXPECT_TRUE(batch[i].isZero()) << "index " << i;
        else
            EXPECT_TRUE(batch[i].equals(elems[i].inv())) << "index " << i;
    }
}

TEST_F(FieldTest, BatchInvMatchesScalarInvAllLevels)
{
    checkBatchInv(std::vector<Fp>{});
    checkBatchInv(std::vector<Fp>{randFp()});

    // Fp lowers to the residue-level MontCtx::batchInv; zeros
    // sprinkled through the batch must not poison the product chain.
    std::vector<Fp> fps;
    for (int i = 0; i < 17; ++i)
        fps.push_back(randFp());
    fps[0] = fps[0].zeroLike();
    fps[9] = fps[9].zeroLike();
    checkBatchInv(fps);
    checkBatchInv(std::vector<Fp>(4, fps[0].zeroLike()));

    // Tower levels run the generic Montgomery trick over their own
    // mul/inv (the G2 twist-coordinate path).
    std::vector<Fp2> f2;
    for (int i = 0; i < 9; ++i)
        f2.push_back(randFp2());
    f2[4] = f2[4].zeroLike();
    checkBatchInv(f2);

    std::vector<Fp6> f6;
    for (int i = 0; i < 5; ++i)
        f6.push_back(randFp6());
    checkBatchInv(f6);

    std::vector<Fp12> f12;
    for (int i = 0; i < 5; ++i)
        f12.push_back(randFp12());
    f12[0] = f12[0].zeroLike();
    f12[4] = f12[4].zeroLike();
    checkBatchInv(f12);
}

template <typename F>
void
checkFieldAxioms(const F &a, const F &b, const F &c)
{
    // Commutativity / associativity / distributivity.
    EXPECT_TRUE(a.mul(b).equals(b.mul(a)));
    EXPECT_TRUE(a.mul(b.mul(c)).equals(a.mul(b).mul(c)));
    EXPECT_TRUE(a.mul(b.add(c)).equals(a.mul(b).add(a.mul(c))));
    // Squaring consistency.
    EXPECT_TRUE(a.sqr().equals(a.mul(a)));
    // Inverse.
    EXPECT_TRUE(a.mul(a.inv()).equals(a.oneLike()));
    // Linear ops.
    EXPECT_TRUE(a.dbl().equals(a.add(a)));
    EXPECT_TRUE(a.tpl().equals(a.add(a).add(a)));
    EXPECT_TRUE(a.halve().dbl().equals(a));
    EXPECT_TRUE(a.neg().add(a).isZero());
}

TEST_F(FieldTest, Fp2Axioms)
{
    for (int i = 0; i < 10; ++i)
        checkFieldAxioms(randFp2(), randFp2(), randFp2());
}

TEST_F(FieldTest, Fp6Axioms)
{
    for (int i = 0; i < 5; ++i)
        checkFieldAxioms(randFp6(), randFp6(), randFp6());
}

TEST_F(FieldTest, Fp12Axioms)
{
    for (int i = 0; i < 3; ++i)
        checkFieldAxioms(randFp12(), randFp12(), randFp12());
}

/**
 * Native Fp2 mul/sqr (the base field's Fp2 kernel) against the eager
 * schoolbook formulas built from Fp::mul/add/sub and mulByNu, on 0, 1,
 * p-1 and random coefficients. The native tower ignores the level-2
 * variant config, so a second config must not change a result either.
 */
void
checkFp2AgainstEager(const BigInt &p, Rng &rng)
{
    const FpCtx fp(p);
    i64 q, x0, x1;
    searchTowerNonResidues(p, q, x0, x1);
    QuadCtx<Fp> ctxs[2];
    ctxs[1].variants = {MulVariant::Schoolbook, SqrVariant::Schoolbook};
    for (QuadCtx<Fp> &c : ctxs) {
        c.base = &fp;
        c.nu = NuDesc::smallInt(q);
        c.degree = 2;
    }
    const QuadCtx<Fp> &ctx = ctxs[0];
    std::vector<Fp> vals = {Fp::zero(&fp), Fp::one(&fp),
                            Fp::fromBig(&fp, p - BigInt(u64{1}))};
    for (int i = 0; i < 6; ++i)
        vals.push_back(Fp::fromBig(&fp, BigInt::randomBelow(rng, p)));
    const std::string where = p.toHexString() + " q " + std::to_string(q);
    const size_t n = vals.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < n; ++k) {
            const Fp &a0 = vals[i], &a1 = vals[k];
            const Fp &b0 = vals[k], &b1 = vals[(i + 2) % n];
            const Fp want0 = a0.mul(b0).add(ctx.mulByNu(a1.mul(b1)));
            const Fp want1 = a0.mul(b1).add(a1.mul(b0));
            const Fp sq0 = a0.sqr().add(ctx.mulByNu(a1.sqr()));
            const Fp sq1 = a0.mul(a1).dbl();
            for (const QuadCtx<Fp> &c : ctxs) {
                const Fp2 a{a0, a1, &c};
                const Fp2 b{b0, b1, &c};
                const Fp2 m = a.mul(b);
                EXPECT_TRUE(m.c0().equals(want0)) << where;
                EXPECT_TRUE(m.c1().equals(want1)) << where;
                const Fp2 s = a.sqr();
                EXPECT_TRUE(s.c0().equals(sq0)) << where;
                EXPECT_TRUE(s.c1().equals(sq1)) << where;
                EXPECT_TRUE(a.sub(b).add(b).mul(a).equals(s)) << where;
            }
        }
    }
}

TEST_F(FieldTest, VariantEquivalenceQuadratic)
{
    checkFp2AgainstEager(p_, rng_);
    for (const CurveDef &def : curveCatalog())
        checkFp2AgainstEager(deriveCurveInfo(def).p, rng_);
    // alt_bn128's scalar field: p = 1 mod 4, so u^2 = q != -1.
    const BigInt p1mod4 = BigInt::fromString(
        "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001");
    i64 q, x0, x1;
    searchTowerNonResidues(p1mod4, q, x0, x1);
    ASSERT_NE(q, -1);
    checkFp2AgainstEager(p1mod4, rng_);
}

TEST_F(FieldTest, VariantEquivalenceCubic)
{
    for (auto sqrVar :
         {SqrVariant::Schoolbook, SqrVariant::CHSqr2, SqrVariant::CHSqr3}) {
        for (auto mulVar : {MulVariant::Schoolbook, MulVariant::Karatsuba}) {
            NativeTower12 alt;
            VariantConfig cfg;
            cfg.levels[6] = {mulVar, sqrVar};
            buildTower(alt, fp_.get(), prm_, cfg);
            for (int i = 0; i < 5; ++i) {
                const Fp6 a = randFp6();
                const Fp6 b = randFp6();
                const Fp6 aAlt{Fp2{a.c0().c0(), a.c0().c1(), &alt.fp2},
                               Fp2{a.c1().c0(), a.c1().c1(), &alt.fp2},
                               Fp2{a.c2().c0(), a.c2().c1(), &alt.fp2},
                               &alt.fp6};
                const Fp6 bAlt{Fp2{b.c0().c0(), b.c0().c1(), &alt.fp2},
                               Fp2{b.c1().c0(), b.c1().c1(), &alt.fp2},
                               Fp2{b.c2().c0(), b.c2().c1(), &alt.fp2},
                               &alt.fp6};
                std::vector<BigInt> want, got;
                a.mul(b).toFpCoeffs(want);
                aAlt.mul(bAlt).toFpCoeffs(got);
                EXPECT_EQ(want, got);
                want.clear();
                got.clear();
                a.sqr().toFpCoeffs(want);
                aAlt.sqr().toFpCoeffs(got);
                EXPECT_EQ(want, got)
                    << "sqr variant " << toString(sqrVar);
            }
        }
    }
}

TEST_F(FieldTest, FrobeniusMatchesPowP)
{
    // frob(x) must equal x^p on every level.
    const Fp2 a2 = randFp2();
    EXPECT_TRUE(a2.frob().equals(powBig(a2, p_)));
    const Fp6 a6 = randFp6();
    EXPECT_TRUE(a6.frob().equals(powBig(a6, p_)));
    const Fp12 a12 = randFp12();
    EXPECT_TRUE(a12.frob().equals(powBig(a12, p_)));
    // frob^12 = identity on Fp12.
    EXPECT_TRUE(frobPow(a12, 12).equals(a12));
    // frob is a ring homomorphism.
    const Fp12 b12 = randFp12();
    EXPECT_TRUE(a12.mul(b12).frob().equals(a12.frob().mul(b12.frob())));
}

TEST_F(FieldTest, ConjugateIsFrob6)
{
    // On Fp12, conjugation over Fp6 equals x -> x^(p^6).
    const Fp12 a = randFp12();
    EXPECT_TRUE(a.conj().equals(frobPow(a, 6)));
    // x * conj(x) lands in Fp6 (c1 = 0).
    EXPECT_TRUE(a.mul(a.conj()).c1().isZero());
}

TEST_F(FieldTest, MulByGenMatchesExplicitGen)
{
    const Fp6 a = randFp6();
    EXPECT_TRUE(a.mulByGen().equals(a.mul(Fp6::gen(&tower_->fp6))));
    const Fp2 b = randFp2();
    EXPECT_TRUE(b.mulByGen().equals(b.mul(Fp2::gen(&tower_->fp2))));
    const Fp12 c = randFp12();
    EXPECT_TRUE(c.mulByGen().equals(c.mul(Fp12::gen(&tower_->fp12))));
}

TEST_F(FieldTest, MulBySmallPair)
{
    const Fp2 a = randFp2();
    const Fp2 xi = Fp2::one(&tower_->fp2).mulBySmallPair(prm_.xi0, prm_.xi1);
    EXPECT_TRUE(a.mulBySmallPair(prm_.xi0, prm_.xi1).equals(a.mul(xi)));
}

TEST_F(FieldTest, ScaleScalar)
{
    const Fp s = randFp();
    const Fp12 a = randFp12();
    std::vector<BigInt> coeffs;
    a.toFpCoeffs(coeffs);
    const Fp12 scaled = a.scaleScalar(s);
    std::vector<BigInt> got;
    scaled.toFpCoeffs(got);
    for (size_t i = 0; i < coeffs.size(); ++i) {
        EXPECT_EQ(got[i],
                  (coeffs[i] * s.toBig()).mod(p_));
    }
}

TEST_F(FieldTest, FromSlotsBasis)
{
    // fromSlots must agree with explicit powers of the generator z = w.
    std::array<Fp2, 6> slots;
    for (auto &s : slots)
        s = Fp2::zero(&tower_->fp2);
    const Fp2 val = randFp2();
    for (int slot = 0; slot < 6; ++slot) {
        for (auto &s : slots)
            s = Fp2::zero(&tower_->fp2);
        slots[slot] = val;
        const Fp12 dense = tower_->fromSlots(slots);
        // Build z^slot * embed(val) explicitly.
        Fp12 z = Fp12::gen(&tower_->fp12);
        Fp12 acc = tower_->fromSlots(
            {val, Fp2::zero(&tower_->fp2), Fp2::zero(&tower_->fp2),
             Fp2::zero(&tower_->fp2), Fp2::zero(&tower_->fp2),
             Fp2::zero(&tower_->fp2)});
        for (int i = 0; i < slot; ++i)
            acc = acc.mul(z);
        EXPECT_TRUE(dense.equals(acc)) << "slot " << slot;
    }
}

TEST_F(FieldTest, PowBigMatchesRepeatedMul)
{
    const Fp2 a = randFp2();
    Fp2 acc = Fp2::one(&tower_->fp2);
    for (int i = 0; i < 13; ++i)
        acc = acc.mul(a);
    EXPECT_TRUE(powBig(a, BigInt(u64{13})).equals(acc));
    EXPECT_TRUE(powBig(a, BigInt()).equals(Fp2::one(&tower_->fp2)));
}

TEST_F(FieldTest, SqrtFp)
{
    std::function<Fp()> sample = [&] { return randFp(); };
    for (int i = 0; i < 20; ++i) {
        const Fp a = randFp();
        const Fp sq = a.sqr();
        Fp root;
        ASSERT_TRUE(trySqrt<Fp>(sq, p_, sample, root));
        EXPECT_TRUE(root.sqr().equals(sq));
    }
    // Non-residues must be rejected: q from the tower params is one.
    const Fp nr = Fp::fromInt(fp_.get(), prm_.q);
    Fp root;
    EXPECT_FALSE(trySqrt<Fp>(nr, p_, sample, root));
}

TEST_F(FieldTest, SqrtFp2)
{
    std::function<Fp2()> sample = [&] { return randFp2(); };
    const BigInt order = p_ * p_;
    int found = 0;
    for (int i = 0; i < 10; ++i) {
        const Fp2 a = randFp2();
        const Fp2 sq = a.sqr();
        Fp2 root = Fp2::zero(&tower_->fp2);
        ASSERT_TRUE(trySqrt<Fp2>(sq, order, sample, root));
        EXPECT_TRUE(root.sqr().equals(sq));
        ++found;
    }
    EXPECT_EQ(found, 10);
}

TEST_F(FieldTest, TowerParamValidationRejectsBadResidues)
{
    // q = 1 is always a square: must be rejected.
    EXPECT_THROW(computeTowerParams(p_, 12, 1, 1, 1), FatalError);
}

TEST(FieldTower24, BuildAndAxioms)
{
    // Search a small BLS24-ish prime for cheap Fp24 checks: x = 1 mod 3,
    // p = (x-1)^2 (x^8 - x^4 + 1) / 3 + x prime and 1 mod 6.
    BigInt p, r;
    bool found = false;
    for (u64 base = (u64{1} << 16); base < (u64{1} << 16) + 3000 && !found;
         ++base) {
        const BigInt x = -BigInt(base);
        if (!(x.mod(BigInt(u64{3})) == BigInt(u64{1})))
            continue;
        const BigInt x4 = (x * x).pow(2);
        r = x4 * x4 - x4 + BigInt(u64{1});
        const BigInt cand =
            ((x - BigInt(u64{1})).pow(2) * r).divExact(BigInt(u64{3})) + x;
        if (cand.mod(BigInt(u64{6})) == BigInt(u64{1}) &&
            isProbablePrime(cand)) {
            p = cand;
            found = true;
        }
    }
    ASSERT_TRUE(found);

    FpCtx fp(p);
    i64 q, x0, x1;
    searchTowerNonResidues(p, q, x0, x1);
    const TowerParams prm = computeTowerParams(p, 24, q, x0, x1);
    NativeTower24 t;
    buildTower(t, &fp, prm, VariantConfig{});

    Rng rng(7);
    auto randFp = [&] { return Fp::fromBig(&fp, BigInt::randomBelow(rng, p)); };
    auto randFp2 = [&] { return Fp2{randFp(), randFp(), &t.fp2}; };
    auto randFp4 = [&] { return Fp4{randFp2(), randFp2(), &t.fp4}; };
    auto randFp12 = [&] {
        return Fp12b{randFp4(), randFp4(), randFp4(), &t.fp12};
    };
    auto randFp24 = [&] { return Fp24{randFp12(), randFp12(), &t.fp24}; };

    for (int i = 0; i < 3; ++i)
        checkFieldAxioms(randFp24(), randFp24(), randFp24());

    const Fp24 a = randFp24();
    EXPECT_TRUE(a.frob().equals(powBig(a, p)));
    EXPECT_TRUE(frobPow(a, 24).equals(a));
    EXPECT_TRUE(a.conj().equals(frobPow(a, 12)));
}

} // namespace
} // namespace finesse
// Appended edge-case coverage -------------------------------------------

namespace finesse {
namespace {

TEST_F(FieldTest, InverseOfZeroIsZeroEverywhere)
{
    // Fermat inversion maps 0 -> 0; the tower formulas must preserve
    // that convention (the hardware INV unit does the same).
    EXPECT_TRUE(Fp::zero(fp_.get()).inv().isZero());
    EXPECT_TRUE(Fp2::zero(&tower_->fp2).inv().isZero());
    EXPECT_TRUE(Fp6::zero(&tower_->fp6).inv().isZero());
    EXPECT_TRUE(Fp12::zero(&tower_->fp12).inv().isZero());
}

TEST_F(FieldTest, OneIsMultiplicativeIdentity)
{
    const Fp12 a = randFp12();
    EXPECT_TRUE(a.mul(Fp12::one(&tower_->fp12)).equals(a));
    EXPECT_TRUE(Fp12::one(&tower_->fp12).inv().equals(
        Fp12::one(&tower_->fp12)));
}

TEST_F(FieldTest, CoeffSerializationRoundTrip)
{
    const Fp12 a = randFp12();
    std::vector<BigInt> coeffs;
    a.toFpCoeffs(coeffs);
    ASSERT_EQ(coeffs.size(), 12u);
    auto it = coeffs.begin();
    const Fp12 back = Fp12::fromFpCoeffs(&tower_->fp12, it);
    EXPECT_TRUE(back.equals(a));
    EXPECT_EQ(it, coeffs.end());
}

TEST_F(FieldTest, GenHasCorrectMinimalPolynomial)
{
    // w^2 = v (the cubic generator), v^3 = xi.
    const Fp12 w = Fp12::gen(&tower_->fp12);
    const Fp12 wSquared = w.sqr();
    const Fp6 v = Fp6::gen(&tower_->fp6);
    EXPECT_TRUE(wSquared.c0().equals(v));
    EXPECT_TRUE(wSquared.c1().isZero());
    const Fp6 vCubed = v.sqr().mul(v);
    const Fp2 xi =
        Fp2::one(&tower_->fp2).mulBySmallPair(prm_.xi0, prm_.xi1);
    EXPECT_TRUE(vCubed.c0().equals(xi));
    EXPECT_TRUE(vCubed.c1().isZero() && vCubed.c2().isZero());
}

TEST_F(FieldTest, FrobeniusFixedFieldIsFp)
{
    // frob fixes exactly Fp-embedded elements.
    const Fp s = randFp();
    const Fp12 embedded = Fp12::one(&tower_->fp12).scaleScalar(s);
    EXPECT_TRUE(embedded.frob().equals(embedded));
}


TEST(FieldTower24, VariantEquivalenceAllLevels)
{
    // Same arithmetic under swapped variants at every k = 24 level.
    const BigInt x = -BigInt(u64{65558}); // from BuildAndAxioms search
    const BigInt x4 = (x * x).pow(2);
    const BigInt r = x4 * x4 - x4 + BigInt(u64{1});
    BigInt p =
        ((x - BigInt(u64{1})).pow(2) * r).divExact(BigInt(u64{3})) + x;
    if (!isProbablePrime(p) || !(p.mod(BigInt(u64{6})) == BigInt(u64{1}))) {
        // Fall back to a search if the fixed seed value is not prime.
        for (u64 base = 1 << 16;; ++base) {
            const BigInt xx = -BigInt(base);
            if (!(xx.mod(BigInt(u64{3})) == BigInt(u64{1})))
                continue;
            const BigInt xx4 = (xx * xx).pow(2);
            const BigInt rr = xx4 * xx4 - xx4 + BigInt(u64{1});
            const BigInt cand =
                ((xx - BigInt(u64{1})).pow(2) * rr)
                    .divExact(BigInt(u64{3})) +
                xx;
            if (cand.mod(BigInt(u64{6})) == BigInt(u64{1}) &&
                isProbablePrime(cand)) {
                p = cand;
                break;
            }
        }
    }
    FpCtx fp(p);
    i64 q, x0, x1;
    searchTowerNonResidues(p, q, x0, x1);
    const TowerParams prm = computeTowerParams(p, 24, q, x0, x1);

    NativeTower24 base;
    buildTower(base, &fp, prm, VariantConfig{});
    VariantConfig alt = VariantConfig::allSchoolbook({2, 4, 12, 24});
    NativeTower24 school;
    buildTower(school, &fp, prm, alt);

    Rng rng(61);
    auto randCoeffs = [&](int n) {
        std::vector<BigInt> v;
        for (int i = 0; i < n; ++i)
            v.push_back(BigInt::randomBelow(rng, p));
        return v;
    };
    for (int iter = 0; iter < 3; ++iter) {
        const auto ca = randCoeffs(24);
        const auto cb = randCoeffs(24);
        auto ia = ca.begin();
        auto ib = cb.begin();
        const Fp24 a1 = Fp24::fromFpCoeffs(&base.fp24, ia);
        const Fp24 b1 = Fp24::fromFpCoeffs(&base.fp24, ib);
        ia = ca.begin();
        ib = cb.begin();
        const Fp24 a2 = Fp24::fromFpCoeffs(&school.fp24, ia);
        const Fp24 b2 = Fp24::fromFpCoeffs(&school.fp24, ib);
        std::vector<BigInt> want, got;
        a1.mul(b1).toFpCoeffs(want);
        a2.mul(b2).toFpCoeffs(got);
        EXPECT_EQ(want, got);
        want.clear();
        got.clear();
        a1.sqr().toFpCoeffs(want);
        a2.sqr().toFpCoeffs(got);
        EXPECT_EQ(want, got);
        want.clear();
        got.clear();
        a1.inv().toFpCoeffs(want);
        a2.inv().toFpCoeffs(got);
        EXPECT_EQ(want, got);
    }
}

// powerResidue against direct exponentiation -----------------------------

/** An element of @p ctx's level with uniform random Fp coefficients. */
template <typename F>
F
randomLevelElem(const typename F::Ctx *ctx, const BigInt &p, Rng &rng)
{
    std::vector<BigInt> c;
    for (int i = 0; i < ctx->degree; ++i)
        c.push_back(BigInt::randomBelow(rng, p));
    auto it = c.begin();
    return F::fromFpCoeffs(ctx, it);
}

/**
 * On one tower level: powerResidue(a, k) == (a^((p^deg - 1)/k) == 1) for
 * k = 2 and 3 on @p special (the level's non-residues), one, -1, the
 * level generator, random elements and a square and a cube; both
 * verdicts must occur for each k. Also a * a^-1 == 1 on every nonzero
 * sample, since inv() now shares norm() with the residue test.
 */
template <typename F>
void
checkPowerResidueLevel(const typename F::Ctx *ctx, const BigInt &p,
                       std::vector<F> special, Rng &rng)
{
    const F one = F::one(ctx);
    std::vector<F> elems = std::move(special);
    elems.push_back(one);
    elems.push_back(one.neg());
    elems.push_back(F::gen(ctx));
    for (int i = 0; i < 4; ++i)
        elems.push_back(randomLevelElem<F>(ctx, p, rng));
    const F r = randomLevelElem<F>(ctx, p, rng);
    elems.push_back(r.sqr());
    elems.push_back(r.sqr().mul(r));

    // y = a^((|F| - 1)/6) (6 | p - 1); then a^((|F| - 1)/2) = y^3 and
    // a^((|F| - 1)/3) = y^2, one oracle exponentiation per sample.
    const BigInt e6 = (p.pow(static_cast<u64>(ctx->degree)) -
                       BigInt(u64{1}))
                          .divExact(BigInt(u64{6}));
    std::vector<F> y;
    for (const F &a : elems)
        y.push_back(powBig(a, e6));
    for (int k : {2, 3}) {
        int yes = 0;
        for (size_t i = 0; i < elems.size(); ++i) {
            const bool want =
                (k == 2 ? y[i].sqr().mul(y[i]) : y[i].sqr()).equals(one);
            EXPECT_EQ(powerResidue(elems[i], k), want)
                << "degree " << ctx->degree << ", k = " << k
                << ", sample " << i;
            yes += want;
        }
        EXPECT_GT(yes, 0) << "degree " << ctx->degree << ", k = " << k;
        EXPECT_LT(yes, static_cast<int>(elems.size()))
            << "degree " << ctx->degree << ", k = " << k;
    }
    for (const F &a : elems)
        EXPECT_TRUE(a.mul(a.inv()).equals(one)) << "degree " << ctx->degree;
}

/** Fp and every level of a k = 12 catalog tower. */
void
checkPowerResidueTower12(const char *name)
{
    SCOPED_TRACE(name);
    const BigInt p = deriveCurveInfo(findCurve(name)).p;
    FpCtx fp(p);
    i64 q, x0, x1;
    searchTowerNonResidues(p, q, x0, x1);
    NativeTower12 t;
    buildTower(t, &fp, computeTowerParams(p, 12, q, x0, x1),
               VariantConfig{});
    Rng rng(71);

    EXPECT_FALSE(powerResidue(Fp::fromInt(&fp, q), 2));
    EXPECT_TRUE(powerResidue(Fp::fromInt(&fp, q).sqr(), 2));
    const Fp2 xi = Fp2::one(&t.fp2).mulBySmallPair(x0, x1);
    checkPowerResidueLevel<Fp2>(&t.fp2, p, {xi}, rng);
    checkPowerResidueLevel<Fp6>(&t.fp6, p, {Fp6::one(&t.fp6).scale(xi)},
                                rng);
    checkPowerResidueLevel<Fp12>(
        &t.fp12, p, {Fp12::one(&t.fp12).scale(Fp6::gen(&t.fp6))}, rng);
}

TEST(PowerResidue, MatchesExponentiationBN254N)
{
    checkPowerResidueTower12("BN254N");
}

TEST(PowerResidue, MatchesExponentiationBLS12_381)
{
    checkPowerResidueTower12("BLS12-381");
}

TEST(PowerResidue, MatchesExponentiationBLS24_509)
{
    const BigInt p = deriveCurveInfo(findCurve("BLS24-509")).p;
    FpCtx fp(p);
    i64 q, x0, x1;
    searchTowerNonResidues(p, q, x0, x1);
    NativeTower24 t;
    buildTower(t, &fp, computeTowerParams(p, 24, q, x0, x1),
               VariantConfig{});
    Rng rng(73);

    const Fp2 xi = Fp2::one(&t.fp2).mulBySmallPair(x0, x1);
    const Fp4 s = Fp4::gen(&t.fp4);
    checkPowerResidueLevel<Fp2>(&t.fp2, p, {xi}, rng);
    checkPowerResidueLevel<Fp4>(&t.fp4, p, {Fp4::one(&t.fp4).scale(xi)},
                                rng);
    checkPowerResidueLevel<Fp12b>(&t.fp12, p,
                                  {Fp12b::one(&t.fp12).scale(s)}, rng);
    checkPowerResidueLevel<Fp24>(
        &t.fp24, p, {Fp24::one(&t.fp24).scale(Fp12b::gen(&t.fp12))}, rng);
}

TEST(PowerResidue, RejectsKNotDividingPMinus1)
{
    // p = 2^127 - 1: 7 divides p - 1, 5 does not.
    const BigInt p = (BigInt(u64{1}) << 127) - BigInt(u64{1});
    FpCtx fp(p);
    const Fp a = Fp::fromInt(&fp, 3);
    EXPECT_TRUE(powerResidue(powBig(a, BigInt(u64{7})), 7));
    EXPECT_EQ(powerResidue(a, 7),
              powBig(a, (p - BigInt(u64{1})).divExact(BigInt(u64{7})))
                  .equals(Fp::one(&fp)));
    EXPECT_THROW(powerResidue(a, 5), FatalError);
}

} // namespace
} // namespace finesse
