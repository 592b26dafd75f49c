/**
 * @file
 * Pairing-engine property tests: the Miller-loop step operators must
 * agree with the generic curve group law (Jacobian and projective
 * variants), lines must vanish on the points they pass through, and
 * twist/untwist consistency must hold.
 */
#include <gtest/gtest.h>

#include "pairing/cache.h"

namespace finesse {
namespace {

using Engine = PairingEngine<NativeTower12>;

class EngineProps : public ::testing::TestWithParam<const char *>
{
  protected:
    const CurveSystem12 &sys() { return curveSystem12(GetParam()); }
};

TEST_P(EngineProps, DblStepMatchesGroupLaw)
{
    const auto &s = sys();
    Rng rng(71);
    for (auto coords : {CoordSystem::Jacobian, CoordSystem::Projective}) {
        PairingEngine<NativeTower12> eng(s.tower(), s.plan(), coords,
                                         false);
        const auto Q = s.randomG2(rng);
        Engine::TwistJac T{Q.x, Q.y, Fp2::one(s.tower().ftCtx())};
        const auto P = s.randomG1(rng);
        (void)eng.dblStep(T, P.x, P.y);

        // Normalize T back to affine under the coordinate system.
        AffinePt<Fp2> got;
        if (coords == CoordSystem::Jacobian) {
            const Fp2 zi = T.z.inv();
            const Fp2 zi2 = zi.sqr();
            got = AffinePt<Fp2>::make(T.x.mul(zi2),
                                      T.y.mul(zi2).mul(zi));
        } else {
            const Fp2 zi = T.z.inv();
            got = AffinePt<Fp2>::make(T.x.mul(zi), T.y.mul(zi));
        }
        const auto want = affineAdd(s.twistCurve(), Q, Q);
        EXPECT_TRUE(got.equals(want))
            << GetParam() << " " << toString(coords);
    }
}

TEST_P(EngineProps, AddStepMatchesGroupLaw)
{
    const auto &s = sys();
    Rng rng(73);
    for (auto coords : {CoordSystem::Jacobian, CoordSystem::Projective}) {
        PairingEngine<NativeTower12> eng(s.tower(), s.plan(), coords,
                                         false);
        const auto Q1 = s.randomG2(rng);
        const auto Q2 = s.randomG2(rng);
        Engine::TwistJac T{Q1.x, Q1.y, Fp2::one(s.tower().ftCtx())};
        const auto P = s.randomG1(rng);
        (void)eng.addStep(T, Q2.x, Q2.y, P.x, P.y);

        AffinePt<Fp2> got;
        if (coords == CoordSystem::Jacobian) {
            const Fp2 zi = T.z.inv();
            const Fp2 zi2 = zi.sqr();
            got = AffinePt<Fp2>::make(T.x.mul(zi2),
                                      T.y.mul(zi2).mul(zi));
        } else {
            const Fp2 zi = T.z.inv();
            got = AffinePt<Fp2>::make(T.x.mul(zi), T.y.mul(zi));
        }
        const auto want = affineAdd(s.twistCurve(), Q1, Q2);
        EXPECT_TRUE(got.equals(want))
            << GetParam() << " " << toString(coords);
    }
}

TEST_P(EngineProps, LineVanishesThroughThePoints)
{
    // The add-step line through T = Q1 and Q2, evaluated at a G1 point
    // that is "on the line" in the pairing sense, is checked
    // indirectly: the Miller value of [2]Q computed via two different
    // routes must produce the same pairing (consistency of lines is
    // already covered by bilinearity); here we check the cheap
    // algebraic identity l(P) != 0 for random P (lines only vanish on
    // the curve points themselves).
    const auto &s = sys();
    Rng rng(79);
    PairingEngine<NativeTower12> eng(s.tower(), s.plan(),
                                     CoordSystem::Jacobian, false);
    const auto Q = s.randomG2(rng);
    Engine::TwistJac T{Q.x, Q.y, Fp2::one(s.tower().ftCtx())};
    const auto P = s.randomG1(rng);
    const auto l = eng.dblStep(T, P.x, P.y);
    EXPECT_FALSE(l.l0.isZero() && l.l3.isZero() && l.lx.isZero());
}

TEST_P(EngineProps, MillerValueDependsOnBothInputs)
{
    const auto &s = sys();
    Rng rng(83);
    const auto P1 = s.randomG1(rng);
    const auto P2 = s.randomG1(rng);
    const auto Q = s.randomG2(rng);
    const auto f1 = s.engine().miller(P1.x, P1.y, Q.x, Q.y);
    const auto f2 = s.engine().miller(P2.x, P2.y, Q.x, Q.y);
    EXPECT_FALSE(f1.equals(f2));
}

TEST_P(EngineProps, ProjectiveAndJacobianGiveSamePairing)
{
    const auto &s = sys();
    Rng rng(89);
    PairingEngine<NativeTower12> jac(s.tower(), s.plan(),
                                     CoordSystem::Jacobian, false);
    PairingEngine<NativeTower12> proj(s.tower(), s.plan(),
                                      CoordSystem::Projective, false);
    const auto P = s.randomG1(rng);
    const auto Q = s.randomG2(rng);
    // Miller values may differ (different line scalings in proper
    // subfields), but final pairings must agree.
    EXPECT_TRUE(jac.pair(P.x, P.y, Q.x, Q.y)
                    .equals(proj.pair(P.x, P.y, Q.x, Q.y)));
}

INSTANTIATE_TEST_SUITE_P(Curves, EngineProps,
                         ::testing::Values("BN254N", "BLS12-381"),
                         [](const auto &info) {
                             std::string s = info.param;
                             for (char &c : s) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return s;
                         });

TEST(EngineTwist, UntwistFrobeniusConstantsConsistent)
{
    // psi(Q1) == pi(psi(Q)) is equivalent to: the engine's Q1 lies on
    // the twist and [r]Q1 = O (it is again a G2 point).
    const auto &s = curveSystem12("BN254N");
    Rng rng(97);
    const auto Q = s.randomG2(rng);
    const PairingPlan &plan = s.plan();
    auto load = [&](const std::vector<BigInt> &v) {
        auto it = v.begin();
        return Fp2::fromFpCoeffs(s.tower().ftCtx(), it);
    };
    const Fp2 cX = load(plan.frobTwX);
    const Fp2 cY = load(plan.frobTwY);
    const auto Q1 = AffinePt<Fp2>::make(cX.mul(Q.x.frob()),
                                        cY.mul(Q.y.frob()));
    EXPECT_TRUE(isOnCurve(s.twistCurve(), Q1));
    EXPECT_TRUE(scalarMul(s.twistCurve(), Q1, s.info().r).infinity);
    // And psi-frobenius has order dividing k: applying it k times is
    // the identity on the twist point.
    auto applyPsiFrob = [&](AffinePt<Fp2> pt) {
        return AffinePt<Fp2>::make(cX.mul(pt.x.frob()),
                                   cY.mul(pt.y.frob()));
    };
    AffinePt<Fp2> cur = Q;
    for (int i = 0; i < 12; ++i)
        cur = applyPsiFrob(cur);
    EXPECT_TRUE(cur.equals(Q));
}

TEST(EngineInputs, RejectsInfinity)
{
    const auto &s = curveSystem12("BN254N");
    EXPECT_THROW(s.pair(AffinePt<Fp>::atInfinity(), s.g2Gen()),
                 FatalError);
}

} // namespace
} // namespace finesse
