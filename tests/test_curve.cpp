/**
 * @file
 * Curve-module tests: group laws (associativity, commutativity,
 * inverses, scalar distributivity), infinity handling, twist-order
 * derivation, and deterministic generator construction.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

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
    // Two derivations yield identical facts, generators included.
    const CurveDef &def = findCurve("BN254N");
    const CurveFacts a = deriveCurveFacts(def);
    const CurveFacts b = deriveCurveFacts(def);
    EXPECT_TRUE(a.g1x == b.g1x);
    EXPECT_TRUE(a.g1y == b.g1y);
    EXPECT_EQ(a.g2x, b.g2x);
    EXPECT_EQ(a.g2y, b.g2y);
    EXPECT_TRUE(a == b);
}

TEST(CurveSetup, CatalogHashCoversPinnedFacts)
{
    const u64 pinned = catalogHash();
    EXPECT_EQ(hashCatalog(curveCatalog()), pinned);
    const auto hashAfter = [](auto edit) {
        std::vector<CurveDef> defs = curveCatalog();
        edit(defs[3].facts);
        return hashCatalog(defs);
    };
    const BigInt one(u64{1});
    EXPECT_NE(hashAfter([&](CurveFacts &f) { f.g2x[1] = f.g2x[1] + one; }),
              pinned);
    EXPECT_NE(hashAfter([&](CurveFacts &f) { f.g1y = f.g1y + one; }),
              pinned);
    EXPECT_NE(hashAfter([&](CurveFacts &f) { f.lambda = f.lambda + one; }),
              pinned);
    EXPECT_NE(hashAfter([](CurveFacts &f) { f.b += 1; }), pinned);
    EXPECT_NE(hashAfter([](CurveFacts &f) { f.xi1 += 1; }), pinned);
    EXPECT_NE(hashAfter([](CurveFacts &f) {
                  f.twist = f.twist == TwistType::D ? TwistType::M
                                                    : TwistType::D;
              }),
              pinned);
}

/**
 * Constructing System from @p def must throw FatalError, with a message
 * that names the curve and contains @p fact.
 */
template <typename System>
void
expectRefused(const CurveDef &def, const std::string &fact)
{
    try {
        const System sys(def);
        ADD_FAILURE() << def.name << ": corrupt facts accepted, expected "
                      << "an error naming \"" << fact << "\"";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(def.name + ": "), std::string::npos) << msg;
        EXPECT_NE(msg.find(fact), std::string::npos) << msg;
    }
}

/**
 * A point of @p c outside the order-r subgroup: the first point of an
 * x scan, before cofactor clearing.
 */
template <typename F>
AffinePt<F>
pointOutsideSubgroup(const CurveCtx<F> &c, const BigInt &p, const BigInt &r)
{
    std::vector<BigInt> coeffs;
    F::one(c.field).toFpCoeffs(coeffs);
    const size_t degree = coeffs.size();
    Rng rng(41);
    const auto sample = [&] {
        std::vector<BigInt> v;
        for (size_t i = 0; i < degree; ++i)
            v.push_back(BigInt::randomBelow(rng, p));
        auto it = v.begin();
        return F::fromFpCoeffs(c.field, it);
    };
    const auto makeX = [&](u64 i) {
        F x = muliSmall(F::one(c.field), static_cast<i64>(i));
        if constexpr (!std::is_same_v<F, Fp>)
            x = x.add(F::gen(c.field));
        return x;
    };
    const AffinePt<F> pt = findPoint<F>(c, p.pow(degree), makeX, sample);
    EXPECT_FALSE(scalarMul(c, pt, r).infinity);
    return pt;
}

/**
 * Each corruption of one pinned fact of catalog curve @p name is
 * refused at construction, naming the curve and the fact.
 */
template <typename System>
void
checkCorruptFactsRefused(const std::string &name)
{
    using F = typename System::FtT;
    const CurveDef &good = findCurve(name);
    const CurveFacts &facts = good.facts;
    const System sys(good);
    const BigInt &p = sys.info().p;
    const BigInt &r = sys.info().r;
    const BigInt one(u64{1});
    const auto corrupt = [&](const auto &edit, const std::string &fact) {
        SCOPED_TRACE(name + ", corrupt fact: " + fact);
        CurveDef def = good;
        edit(def.facts);
        expectRefused<System>(def, fact);
    };

    corrupt([&](CurveFacts &f) { f.g1y = (f.g1y + one) % p; },
            "g1 generator is not on");
    corrupt([&](CurveFacts &f) { f.g2y[0] = (f.g2y[0] + one) % p; },
            "g2 generator is not on");
    corrupt([&](CurveFacts &f) { f.g1x = f.g1x + p; },
            "g1 generator is not reduced");
    if (sys.g1Cofactor() != one) {
        const AffinePt<Fp> pt = pointOutsideSubgroup(sys.g1Curve(), p, r);
        corrupt(
            [&](CurveFacts &f) {
                f.g1x = pt.x.toBig();
                f.g1y = pt.y.toBig();
            },
            "g1 generator does not have order r");
    }
    const AffinePt<F> pt2 = pointOutsideSubgroup(sys.twistCurve(), p, r);
    corrupt(
        [&](CurveFacts &f) {
            f.g2x.clear();
            f.g2y.clear();
            pt2.x.toFpCoeffs(f.g2x);
            pt2.y.toFpCoeffs(f.g2y);
        },
        "g2 generator does not have order r");
    const TwistType other =
        facts.twist == TwistType::D ? TwistType::M : TwistType::D;
    corrupt([&](CurveFacts &f) { f.twist = other; },
            std::string("twist = ") + toString(other));
    corrupt([](CurveFacts &f) { f.b += 1; },
            "b = " + std::to_string(facts.b + 1));
    corrupt([&](CurveFacts &f) { f.beta = (f.beta * f.beta) % p; },
            "beta");
    corrupt([&](CurveFacts &f) { f.lambda = (f.lambda * f.lambda) % r; },
            "lambda");
    corrupt(
        [&](CurveFacts &f) {
            f.beta = one;
            f.lambda = one;
        },
        "beta = 1");
    corrupt([](CurveFacts &f) { f = CurveFacts{}; }, "no facts");
    corrupt([](CurveFacts &f) { f.xi0 += 1; },
            "xi = " + std::to_string(facts.xi0 + 1) + "," +
                std::to_string(facts.xi1));
}

TEST(CurveSetup, RefusesCorruptFactsBLS12_381)
{
    checkCorruptFactsRefused<CurveSystem12>("BLS12-381");
}

TEST(CurveSetup, RefusesCorruptFactsBN254N)
{
    checkCorruptFactsRefused<CurveSystem12>("BN254N");
}

TEST(CurveSetup, RefusesCorruptFactsBLS24_509)
{
    checkCorruptFactsRefused<CurveSystem24>("BLS24-509");
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
