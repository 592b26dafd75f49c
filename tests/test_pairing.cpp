/**
 * @file
 * Native pairing correctness: bilinearity, non-degeneracy, order-r
 * outputs, hard-part chain verification, and group-law sanity on G1/G2
 * for the catalog curves.
 */
#include <gtest/gtest.h>

#include "pairing/cache.h"

namespace finesse {
namespace {

template <typename TW>
void
checkPairingProperties(const CurveSystem<TW> &sys, int iters)
{
    using GtT = typename TW::GtT;
    Rng rng(2024);
    const BigInt &r = sys.info().r;

    for (int it = 0; it < iters; ++it) {
        const auto P = sys.randomG1(rng);
        const auto Q = sys.randomG2(rng);
        const GtT e = sys.pair(P, Q);
        const GtT one = GtT::one(sys.tower().gtCtx());

        // Non-degeneracy and order r.
        EXPECT_FALSE(e.equals(one));
        EXPECT_TRUE(powBig(e, r).equals(one));

        // Bilinearity with random scalars.
        const BigInt a = BigInt::randomBelow(rng, r - 1) + 1;
        const BigInt b = BigInt::randomBelow(rng, r - 1) + 1;
        const auto aP = scalarMul(sys.g1Curve(), P, a);
        const auto bQ = scalarMul(sys.twistCurve(), Q, b);
        const GtT lhs = sys.pair(aP, bQ);
        const GtT rhs = sys.gtPow(e, (a * b).mod(r));
        EXPECT_TRUE(lhs.equals(rhs));

        // Additivity in the first slot.
        const auto P2 = sys.randomG1(rng);
        const auto sum = affineAdd(sys.g1Curve(), P, P2);
        EXPECT_TRUE(
            sys.pair(sum, Q).equals(sys.pair(P, Q).mul(sys.pair(P2, Q))));
    }
}

TEST(PairingBN254N, Properties)
{
    const auto &sys = curveSystem12("BN254N");
    EXPECT_EQ(sys.plan().hard, HardPartKind::BNChain)
        << "BN chain failed setup verification";
    checkPairingProperties(sys, 2);
}

TEST(PairingBN254N, GroupSanity)
{
    const auto &sys = curveSystem12("BN254N");
    // BN: G1 cofactor is 1.
    EXPECT_EQ(sys.g1Cofactor(), BigInt(u64{1}));
    EXPECT_TRUE(isOnCurve(sys.g1Curve(), sys.g1Gen()));
    EXPECT_TRUE(isOnCurve(sys.twistCurve(), sys.g2Gen()));
    EXPECT_TRUE(scalarMul(sys.g1Curve(), sys.g1Gen(), sys.info().r).infinity);
    EXPECT_TRUE(
        scalarMul(sys.twistCurve(), sys.g2Gen(), sys.info().r).infinity);
}

TEST(PairingBN254N, DigitsFallbackAgrees)
{
    // The generic base-p digit hard part must also be a valid pairing
    // (a fixed power of the chain pairing).
    const auto &sys = curveSystem12("BN254N");
    Rng rng(7);
    const auto P = sys.randomG1(rng);
    const auto Q = sys.randomG2(rng);

    PairingPlan alt = sys.plan();
    alt.hard = HardPartKind::Digits;
    PairingEngine<NativeTower12> eng(sys.tower(), alt,
                                     CoordSystem::Jacobian, false);
    const auto e = eng.pair(P.x, P.y, Q.x, Q.y);
    EXPECT_FALSE(e.equals(Fp12::one(sys.tower().gtCtx())));
    EXPECT_TRUE(powBig(e, sys.info().r)
                    .equals(Fp12::one(sys.tower().gtCtx())));
    // Bilinearity of the digits variant.
    const BigInt a(u64{12345});
    const auto aP = scalarMul(sys.g1Curve(), P, a);
    EXPECT_TRUE(eng.pair(aP.x, aP.y, Q.x, Q.y).equals(powBig(e, a)));
}

TEST(PairingBLS12_381, Properties)
{
    const auto &sys = curveSystem12("BLS12-381");
    EXPECT_EQ(sys.plan().hard, HardPartKind::BLSChain)
        << "BLS12 chain failed setup verification";
    checkPairingProperties(sys, 2);
}

TEST(PairingBLS12_381, KnownShape)
{
    const auto &sys = curveSystem12("BLS12-381");
    // BLS12-381 is the M-type twist curve y^2 = x^3 + 4 over Fp.
    EXPECT_EQ(sys.b(), 4);
    EXPECT_EQ(sys.twistType(), TwistType::M);
    EXPECT_EQ(sys.info().logP(), 381);
    EXPECT_EQ(sys.info().logR(), 255);
}

TEST(PairingBLS24_509, Properties)
{
    const auto &sys = curveSystem24("BLS24-509");
    EXPECT_EQ(sys.plan().hard, HardPartKind::BLSChain)
        << "BLS24 chain failed setup verification";
    checkPairingProperties(sys, 1);
}

TEST(PairingAllCurves, BilinearitySmoke)
{
    Rng rng(99);
    for (const auto &def : curveCatalog()) {
        SCOPED_TRACE(def.name);
        if (def.family == CurveFamily::BLS24) {
            checkPairingProperties(curveSystem24(def.name), 1);
        } else {
            checkPairingProperties(curveSystem12(def.name), 1);
        }
    }
}

TEST(PairingPlanChecks, ChainVerificationCatchesBadChains)
{
    // A deliberately wrong "chain" must fail exponent verification.
    const auto &sys = curveSystem12("BN254N");
    const bool ok = verifyHardChain(
        [](const ExpoSim &f, const BigInt &) { return f.sqr(); },
        sys.info().p, sys.info().r, sys.info().def.x, 12);
    EXPECT_FALSE(ok);
    // And the real chains pass.
    EXPECT_TRUE(verifyHardChain(
        [](const ExpoSim &f, const BigInt &x) { return hardChainBN(f, x); },
        sys.info().p, sys.info().r, sys.info().def.x, 12));
}

TEST(PairingPlanChecks, TwistFrobeniusSquareConstantsMatchFp2Powers)
{
    // makePairingPlan takes the k = 12 pi^2 constants as powers of
    // N(xi) in Fp; the oracle is the Fp2 form xi^((p^2-1)/3) and
    // xi^((p^2-1)/2), inverted on M twists.
    for (const CurveDef &def : curveCatalog()) {
        if (def.family == CurveFamily::BLS24)
            continue;
        const CurveSystem12 &sys = curveSystem12(def.name);
        const Fp2 xi = sys.tower().twistXi();
        const BigInt &p = sys.info().p;
        const BigInt p2m1 = p * p - BigInt(u64{1});
        for (const TwistType twist : {TwistType::D, TwistType::M}) {
            SCOPED_TRACE(def.name + " " + toString(twist));
            Fp2 cX2 = powBig(xi, p2m1.divExact(BigInt(u64{3})));
            Fp2 cY2 = powBig(xi, p2m1 >> 1);
            if (twist == TwistType::M) {
                cX2 = cX2.inv();
                cY2 = cY2.inv();
            }
            std::vector<BigInt> wantX, wantY;
            cX2.toFpCoeffs(wantX);
            cY2.toFpCoeffs(wantY);
            const PairingPlan plan =
                makePairingPlan(sys.info(), twist, sys.tower());
            EXPECT_EQ(plan.frobTwX2, wantX);
            EXPECT_EQ(plan.frobTwY2, wantY);
        }
    }
}

TEST(CurveCatalog, Table2BitLengths)
{
    // Reproduces Table 2 of the paper.
    struct Expect
    {
        const char *name;
        int logT, logP, logR, k;
    };
    const Expect expected[] = {
        {"BN254N", 62, 254, 254, 12},   {"BN462", 114, 462, 462, 12},
        {"BN638", 158, 638, 638, 12},   {"BLS12-381", 64, 381, 255, 12},
        {"BLS12-446", 75, 446, 299, 12}, {"BLS12-638", 109, 638, 427, 12},
        {"BLS24-509", 51, 509, 408, 24},
    };
    for (const auto &e : expected) {
        SCOPED_TRACE(e.name);
        const CurveInfo info = deriveCurveInfo(findCurve(e.name));
        EXPECT_EQ(info.logP(), e.logP);
        EXPECT_EQ(info.logR(), e.logR);
        EXPECT_EQ(info.k, e.k);
        // log|t| within 1 bit of the table (t vs 6x^2+1 conventions).
        EXPECT_NEAR(info.def.x.abs().bitLength(), e.logT, 3);
    }
}

TEST(TwistOrder, MatchesPointCounts)
{
    const auto &sys = curveSystem12("BN254N");
    // For BN: #E'(Fp2) = p(p-1) + t^2 - t + 1? Use the classical
    // identity #E'(Fp2) = (p + 1 - t)(p - 1 + t) + t^2 ... instead of a
    // closed form, just verify the computed order annihilates G2 points.
    Rng rng(5);
    const auto Q = sys.randomG2(rng);
    const BigInt n = sys.g2Cofactor() * sys.info().r;
    EXPECT_TRUE(scalarMul(sys.twistCurve(), Q, n).infinity);
}

} // namespace
} // namespace finesse
