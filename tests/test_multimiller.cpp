/**
 * @file
 * Shared multi-Miller loop tests. The product path (one accumulator
 * squaring per loop bit, sparse line multiplication) is checked
 * against independent oracles: the product of single-term Miller
 * loops, which must agree *exactly* in GT before the final
 * exponentiation, and the product of single pairings. The sparse line
 * multiply is checked against a dense GT multiply by the spread line
 * for both twist layouts on both tower shapes, and the M-twist layout
 * against the unscaled line it stands for.
 */
#include <gtest/gtest.h>

#include "pairing/cache.h"

namespace finesse {

/** Reaches the engine's private sparse line multiply. */
template <typename TW>
struct PairingEngineTestPeer
{
    using Engine = PairingEngine<TW>;
    using GtT = typename TW::GtT;

    static GtT
    mulByLine(const Engine &eng, GtT f, const typename Engine::Line &l)
    {
        eng.mulByLine(f, l);
        return f;
    }
};

namespace {

/**
 * The oracle: spread a line into a dense GT element. A D-twist line
 * fills slots (0, 1, 3) with (l0, lx, l3); an M-twist line, scaled by
 * w^3/xi, fills slots (0, 2, 3) with (l3, lx, l0).
 */
template <typename TW>
typename TW::GtT
lineToGt(const TW &tw, TwistType twist,
         const typename PairingEngine<TW>::Line &l)
{
    const auto z = TW::FtT::zero(tw.ftCtx());
    if (twist == TwistType::D)
        return tw.fromSlots({l.l0, l.lx, z, l.l3, z, z});
    return tw.fromSlots({l.l3, z, l.lx, l.l0, z, z});
}

template <typename F>
F
randomElem(const typename F::Ctx *ctx, int degree, const BigInt &p,
           Rng &rng)
{
    std::vector<BigInt> coeffs;
    for (int i = 0; i < degree; ++i)
        coeffs.push_back(BigInt::randomBelow(rng, p));
    auto it = coeffs.begin();
    return F::fromFpCoeffs(ctx, it);
}

/** Sparse multiply == dense multiply by the spread line, both twists. */
template <typename TW>
void
checkSparseLineMul(const CurveSystem<TW> &sys, u64 seed)
{
    using Engine = PairingEngine<TW>;
    using FtT = typename TW::FtT;
    using GtT = typename TW::GtT;
    const BigInt &p = sys.info().p;
    const TW &tw = sys.tower();
    const auto z = FtT::zero(tw.ftCtx());
    // w^3 and xi as GT elements, for the M-twist scaling check.
    const GtT w3 = tw.fromSlots({z, z, z, FtT::one(tw.ftCtx()), z, z});
    const GtT xi = tw.fromSlots({tw.twistXi(), z, z, z, z, z});
    Rng rng(seed);
    for (TwistType twist : {TwistType::D, TwistType::M}) {
        PairingPlan plan = sys.plan();
        plan.twist = twist;
        const Engine eng(tw, plan, CoordSystem::Jacobian, false);
        for (int i = 0; i < 8; ++i) {
            const GtT f = randomElem<GtT>(tw.gtCtx(), TW::kEmbedding, p, rng);
            const typename Engine::Line l{
                randomElem<FtT>(tw.ftCtx(), TW::kFtDegree, p, rng),
                randomElem<FtT>(tw.ftCtx(), TW::kFtDegree, p, rng),
                randomElem<FtT>(tw.ftCtx(), TW::kFtDegree, p, rng)};
            using Peer = PairingEngineTestPeer<TW>;
            const GtT dense = lineToGt(tw, twist, l);
            EXPECT_TRUE(Peer::mulByLine(eng, f, l).equals(f.mul(dense)))
                << sys.info().def.name << " twist=" << static_cast<int>(twist)
                << " i=" << i;
            if (twist == TwistType::M) {
                // xi * spread == (xi l0 + l3 w^3 + lx w^5) * w^3.
                const GtT unscaled =
                    tw.fromSlots({l.l0.mul(tw.twistXi()), z, z, l.l3, z, l.lx});
                EXPECT_TRUE(dense.mul(xi).equals(unscaled.mul(w3)))
                    << sys.info().def.name << " i=" << i;
            }
        }
    }
}

TEST(SparseLine, MatchesDenseK12)
{
    checkSparseLineMul(curveSystem12("BN254N"), 601);
}

TEST(SparseLine, MatchesDenseK24)
{
    checkSparseLineMul(curveSystem24("BLS24-509"), 603);
}

/**
 * For every prefix of a term list with k = 1..maxTerms finite terms:
 * multiMiller == prod miller exactly, and pairProduct (with the
 * infinity terms mixed in) == prod pair.
 */
template <typename TW>
void
checkProducts(const CurveSystem<TW> &sys, size_t maxTerms, u64 seed)
{
    using Engine = PairingEngine<TW>;
    using GtT = typename TW::GtT;
    using G1 = typename CurveSystem<TW>::G1Affine;
    using G2 = typename CurveSystem<TW>::G2Affine;
    const Engine &eng = sys.engine();
    const GtT one = GtT::one(sys.tower().gtCtx());
    Rng rng(seed);

    // Finite terms: random pairs, plus a duplicated pair and a
    // (P, Q), (-P, Q) pair whose pairings cancel.
    std::vector<std::pair<G1, G2>> finite;
    while (finite.size() < maxTerms) {
        const G1 P = sys.randomG1(rng);
        const G2 Q = sys.randomG2(rng);
        finite.push_back({P, Q});
        if (finite.size() == 3 && finite.size() < maxTerms)
            finite.push_back({P, Q});
        if (finite.size() == 5 && finite.size() < maxTerms)
            finite.push_back({P.negate(), Q});
    }
    finite.resize(maxTerms);

    std::vector<typename Engine::PairInput> inputs;
    std::vector<std::pair<G1, G2>> terms; // finite plus infinity terms
    GtT millerProd = one;
    GtT pairProd = one;
    for (size_t k = 1; k <= maxTerms; ++k) {
        const auto &[P, Q] = finite[k - 1];
        inputs.push_back({P.x, P.y, Q.x, Q.y});
        terms.push_back({P, Q});
        if (k % 3 == 1)
            terms.push_back({G1::atInfinity(), sys.randomG2(rng)});
        if (k % 4 == 2)
            terms.push_back({sys.randomG1(rng), G2::atInfinity()});
        millerProd = millerProd.mul(eng.miller(P.x, P.y, Q.x, Q.y));
        pairProd = pairProd.mul(sys.pair(P, Q));

        EXPECT_TRUE(eng.multiMiller(inputs).equals(millerProd))
            << sys.info().def.name << " k=" << k;
        EXPECT_TRUE(sys.pairProduct(terms).equals(pairProd))
            << sys.info().def.name << " k=" << k;
    }
}

TEST(MultiMiller, MatchesSingleLoopsBN254N)
{
    const auto &sys = curveSystem12("BN254N");
    ASSERT_EQ(sys.twistType(), TwistType::D);
    checkProducts(sys, 20, 611);
}

TEST(MultiMiller, MatchesSingleLoopsBLS12_381)
{
    const auto &sys = curveSystem12("BLS12-381");
    ASSERT_EQ(sys.twistType(), TwistType::M);
    checkProducts(sys, 20, 613);
}

TEST(MultiMiller, MatchesSingleLoopsBLS24_509)
{
    checkProducts(curveSystem24("BLS24-509"), 4, 617);
}

/** e(P, Q) e(-P, Q) e(R, S) e(R, -S) = 1, infinity terms ignored. */
template <typename TW>
void
checkCancellation(const CurveSystem<TW> &sys, u64 seed)
{
    using G1 = typename CurveSystem<TW>::G1Affine;
    Rng rng(seed);
    const auto P = sys.randomG1(rng);
    const auto Q = sys.randomG2(rng);
    const auto R = sys.randomG1(rng);
    const auto S = sys.randomG2(rng);
    EXPECT_TRUE(sys.pairProduct({{P, Q},
                                 {G1::atInfinity(), S},
                                 {P.negate(), Q},
                                 {R, S},
                                 {R, S.negate()}})
                    .equals(TW::GtT::one(sys.tower().gtCtx())))
        << sys.info().def.name;
}

TEST(MultiMiller, CancellingPairsGiveOne)
{
    checkCancellation(curveSystem12("BN254N"), 619);
    checkCancellation(curveSystem12("BLS12-381"), 619);
    checkCancellation(curveSystem24("BLS24-509"), 619);
}

TEST(MultiMiller, RejectsEmptyInput)
{
    const auto &sys = curveSystem12("BN254N");
    EXPECT_THROW(sys.engine().multiMiller({}), FatalError);
    EXPECT_TRUE(sys.pairProduct({}).equals(Fp12::one(sys.tower().gtCtx())));
}

} // namespace
} // namespace finesse
