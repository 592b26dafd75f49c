/**
 * @file
 * Curve-module tests: group laws (associativity, commutativity,
 * inverses, scalar distributivity), infinity handling, twist-order
 * derivation, and deterministic generator construction.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "pairing/cache.h"

namespace finesse {
namespace {

class CurveGroupLaw : public ::testing::TestWithParam<const char *>
{
  protected:
    const CurveSystem12 &sys() { return curveSystem12(GetParam()); }
};

TEST_P(CurveGroupLaw, G1Axioms)
{
    const auto &s = sys();
    Rng rng(11);
    const auto &c = s.g1Curve();
    const auto P = s.randomG1(rng);
    const auto Q = s.randomG1(rng);
    const auto R = s.randomG1(rng);

    // Closure + commutativity + associativity.
    EXPECT_TRUE(isOnCurve(c, affineAdd(c, P, Q)));
    EXPECT_TRUE(affineAdd(c, P, Q).equals(affineAdd(c, Q, P)));
    EXPECT_TRUE(affineAdd(c, affineAdd(c, P, Q), R)
                    .equals(affineAdd(c, P, affineAdd(c, Q, R))));
    // Identity and inverse.
    EXPECT_TRUE(affineAdd(c, P, AffinePt<Fp>::atInfinity()).equals(P));
    EXPECT_TRUE(affineAdd(c, P, P.negate()).infinity);
    // Doubling consistency.
    EXPECT_TRUE(affineAdd(c, P, P).equals(
        scalarMul(c, P, BigInt(u64{2}))));
}

TEST_P(CurveGroupLaw, ScalarMulProperties)
{
    const auto &s = sys();
    Rng rng(13);
    const auto &c = s.g1Curve();
    const auto P = s.randomG1(rng);
    const BigInt &r = s.info().r;
    const BigInt a = BigInt::randomBelow(rng, r);
    const BigInt b = BigInt::randomBelow(rng, r);

    // [a+b]P = [a]P + [b]P.
    EXPECT_TRUE(scalarMul(c, P, (a + b).mod(r))
                    .equals(affineAdd(c, scalarMul(c, P, a),
                                      scalarMul(c, P, b))));
    // [a][b]P = [ab]P.
    EXPECT_TRUE(scalarMul(c, scalarMul(c, P, a), b)
                    .equals(scalarMul(c, P, (a * b).mod(r))));
    // [-a]P = -[a]P; [0]P = O; [r]P = O.
    EXPECT_TRUE(scalarMul(c, P, -a).equals(scalarMul(c, P, a).negate()));
    EXPECT_TRUE(scalarMul(c, P, BigInt()).infinity);
    EXPECT_TRUE(scalarMul(c, P, r).infinity);
}

TEST_P(CurveGroupLaw, G2Axioms)
{
    const auto &s = sys();
    Rng rng(17);
    const auto &c = s.twistCurve();
    const auto P = s.randomG2(rng);
    const auto Q = s.randomG2(rng);
    EXPECT_TRUE(isOnCurve(c, P));
    EXPECT_TRUE(isOnCurve(c, affineAdd(c, P, Q)));
    EXPECT_TRUE(affineAdd(c, P, P.negate()).infinity);
    EXPECT_TRUE(scalarMul(c, P, s.info().r).infinity);
}

INSTANTIATE_TEST_SUITE_P(Curves, CurveGroupLaw,
                         ::testing::Values("BN254N", "BLS12-381"),
                         [](const auto &info) {
                             std::string s = info.param;
                             for (char &c : s) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return s;
                         });

TEST(CurveSetup, CatalogPrimesFitResidueStorage)
{
    // Residue storage is sized to the widest catalog prime: a wider
    // catalog curve must fail here, not at curve-system setup, and the
    // cap must not carry limbs no catalog curve uses.
    size_t widest = 0;
    for (const CurveDef &def : curveCatalog()) {
        const size_t n = (deriveCurveInfo(def).logP() + 63) / 64;
        EXPECT_LE(n, kMaxLimbs)
            << def.name << " needs " << n << " limbs but kMaxLimbs is "
            << kMaxLimbs << ": raise kMaxLimbs and extend kernelVTable";
        widest = std::max(widest, n);
    }
    EXPECT_EQ(widest, kMaxLimbs)
        << "kMaxLimbs (" << kMaxLimbs << ") is wider than the widest "
        << "catalog prime (" << widest << " limbs)";
}

TEST(CurveSetup, DeterministicGenerators)
{
    // Two constructions of the same curve yield identical generators.
    const CurveDef &def = findCurve("BN254N");
    CurveSystem12 a(def);
    CurveSystem12 b(def);
    EXPECT_TRUE(a.g1Gen().x.toBig() == b.g1Gen().x.toBig());
    EXPECT_TRUE(a.g1Gen().y.toBig() == b.g1Gen().y.toBig());
    std::vector<BigInt> ax, bx;
    a.g2Gen().x.toFpCoeffs(ax);
    b.g2Gen().x.toFpCoeffs(bx);
    EXPECT_EQ(ax, bx);
}

TEST(CurveSetup, TwistOrderIdentities)
{
    // #E(Fp) * #E'(Fp^e)-candidates satisfy the CM relation; we verify
    // via the implementation's own invariants across families.
    for (const char *name : {"BN254N", "BLS12-381", "BLS12-446"}) {
        const auto &s = curveSystem12(name);
        const BigInt n1 = s.info().p + BigInt(u64{1}) - s.info().t;
        EXPECT_EQ(s.g1Cofactor() * s.info().r, n1) << name;
        // G2 cofactor: h2 * r = #E'(Fp2); sanity via a random point.
        Rng rng(3);
        const auto Q = s.randomG2(rng);
        EXPECT_TRUE(
            scalarMul(s.twistCurve(), Q, s.g2Cofactor() * s.info().r)
                .infinity)
            << name;
    }
}

TEST(CurveSetup, BnG1CofactorIsOne)
{
    EXPECT_EQ(curveSystem12("BN254N").g1Cofactor(), BigInt(u64{1}));
    EXPECT_EQ(curveSystem12("BN462").g1Cofactor(), BigInt(u64{1}));
}

TEST(CurveSetup, BlsG1CofactorFormula)
{
    // BLS12: h1 = (x-1)^2 / 3.
    const auto &s = curveSystem12("BLS12-381");
    const BigInt x = s.info().def.x;
    EXPECT_EQ(s.g1Cofactor(),
              ((x - BigInt(u64{1})).pow(2)).divExact(BigInt(u64{3})));
}

TEST(CurveSetup, FindPointRejectsNonCurve)
{
    // findPoint only returns points satisfying the curve equation.
    const auto &s = curveSystem12("BN254N");
    Rng rng(23);
    for (int i = 0; i < 3; ++i) {
        const auto P = s.randomG1(rng);
        EXPECT_TRUE(isOnCurve(s.g1Curve(), P));
        // Perturbed y must fail the equation.
        const auto bad =
            AffinePt<Fp>::make(P.x, P.y.add(Fp::one(&s.fpCtx())));
        EXPECT_FALSE(isOnCurve(s.g1Curve(), bad));
    }
}

TEST(JacobianConversion, RoundTrip)
{
    const auto &s = curveSystem12("BN254N");
    Rng rng(29);
    const auto P = s.randomG1(rng);
    auto j = JacPt<Fp>::fromAffine(P, &s.fpCtx());
    // Scale Z arbitrarily: same point.
    const Fp z = Fp::fromInt(&s.fpCtx(), 7);
    j.x = j.x.mul(z.sqr());
    j.y = j.y.mul(z.sqr().mul(z));
    j.z = j.z.mul(z);
    EXPECT_TRUE(jacToAffine(j, &s.fpCtx()).equals(P));
}

TEST(JacobianConversion, BatchMatchesSequential)
{
    // jacToAffineBatch folds all Z inversions into one Montgomery-
    // trick batch; it must be point-for-point identical to the
    // sequential jacToAffine, including infinity entries (Z == 0).
    const auto &s = curveSystem12("BN254N");
    Rng rng(31);

    std::vector<JacPt<Fp>> j1;
    j1.push_back(JacPt<Fp>::fromAffine(AffinePt<Fp>::atInfinity(),
                                       &s.fpCtx()));
    for (int i = 0; i < 9; ++i)
        j1.push_back(s.randomG1Jac(rng));
    j1.insert(j1.begin() + 5, j1[0]);
    const auto b1 = jacToAffineBatch(j1, &s.fpCtx());
    ASSERT_EQ(b1.size(), j1.size());
    for (size_t i = 0; i < j1.size(); ++i) {
        const auto seq = jacToAffine(j1[i], &s.fpCtx());
        ASSERT_EQ(b1[i].infinity, seq.infinity) << "index " << i;
        if (!seq.infinity) {
            EXPECT_TRUE(b1[i].equals(seq)) << "index " << i;
        }
    }

    // G2: tower coordinates drive the generic field-level batch.
    std::vector<JacPt<Fp2>> j2;
    for (int i = 0; i < 6; ++i)
        j2.push_back(s.randomG2Jac(rng));
    const auto b2 = jacToAffineBatch(j2, s.twistCurve().field);
    ASSERT_EQ(b2.size(), j2.size());
    for (size_t i = 0; i < j2.size(); ++i)
        EXPECT_TRUE(
            b2[i].equals(jacToAffine(j2[i], s.twistCurve().field)));
}

} // namespace
} // namespace finesse
