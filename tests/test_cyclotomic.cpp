/**
 * @file
 * Cyclotomic squaring tests: agreement with the generic squaring
 * inside the cyclotomic subgroup (both tower shapes), disagreement
 * outside it (the precondition matters), chain integration, and the
 * native final exponentiation against its generic-squaring twin on
 * every catalog curve.
 */
#include <gtest/gtest.h>

#include <set>

#include "core/framework.h"
#include "pairing/cache.h"
#include "pairing/cyclotomic.h"

namespace finesse {
namespace {

TEST(Cyclotomic, MatchesGenericSquaringInSubgroupK12)
{
    const auto &sys = curveSystem12("BN254N");
    Rng rng(51);
    for (int i = 0; i < 4; ++i) {
        const auto P = sys.randomG1(rng);
        const auto Q = sys.randomG2(rng);
        const Fp12 e = sys.pair(P, Q); // order-r subgroup element
        const Fp12 fast = cyclotomicSqr(e, sys.tower().fp6);
        EXPECT_TRUE(fast.equals(e.sqr()));
        // Iterated squarings stay consistent.
        Fp12 a = e, b = e;
        for (int j = 0; j < 5; ++j) {
            a = cyclotomicSqr(a, sys.tower().fp6);
            b = b.sqr();
        }
        EXPECT_TRUE(a.equals(b));
    }
}

TEST(Cyclotomic, MatchesGenericSquaringInSubgroupK24)
{
    const auto &sys = curveSystem24("BLS24-509");
    Rng rng(53);
    const auto P = sys.randomG1(rng);
    const auto Q = sys.randomG2(rng);
    const Fp24 e = sys.pair(P, Q);
    const Fp24 fast = cyclotomicSqr(e, sys.tower().fp12);
    EXPECT_TRUE(fast.equals(e.sqr()));
}

TEST(Cyclotomic, RequiresSubgroupMembership)
{
    // For a random (non-cyclotomic) element the shortcut must differ.
    const auto &sys = curveSystem12("BN254N");
    Rng rng(55);
    std::vector<BigInt> coeffs;
    for (int i = 0; i < 12; ++i)
        coeffs.push_back(BigInt::randomBelow(rng, sys.info().p));
    auto it = coeffs.begin();
    const Fp12 f = Fp12::fromFpCoeffs(sys.tower().gtCtx(), it);
    EXPECT_FALSE(
        cyclotomicSqr(f, sys.tower().fp6).equals(f.sqr()));
}

TEST(Cyclotomic, CycloElemChainMatchesPlainChain)
{
    // Running the BN hard-part chain through the CycloElem adapter
    // must produce the identical result.
    const auto &sys = curveSystem12("BN254N");
    Rng rng(57);
    const auto P = sys.randomG1(rng);
    const auto Q = sys.randomG2(rng);
    const Fp12 m = sys.engine().miller(P.x, P.y, Q.x, Q.y);
    // Easy part by hand (puts us in the cyclotomic subgroup).
    Fp12 f = m.conj().mul(m.inv());
    f = frobPow(f, 2).mul(f);

    const Fp12 plain = hardChainBN(f, sys.info().def.x);
    using CE = CycloElem<Fp12, CubicCtx<Fp2>>;
    const CE wrapped(f, &sys.tower().fp6);
    const Fp12 fast = hardChainBN(wrapped, sys.info().def.x).value();
    EXPECT_TRUE(fast.equals(plain));
}

/**
 * sys.engine() squares cyclotomically; its final exponentiation must
 * equal a generic-squaring engine's on several Miller outputs, for
 * the curve's own hard part and for the digit fallback. Records the
 * hard-part kinds exercised in @p covered.
 */
template <typename TW>
void
expectFinalExpMatchesGeneric(const CurveSystem<TW> &sys, u64 seed,
                             std::set<HardPartKind> &covered)
{
    using GtT = typename TW::GtT;
    using Engine = PairingEngine<TW>;
    ASSERT_TRUE(sys.engine().cycloSqr());
    Rng rng(seed);
    std::vector<GtT> ms;
    for (int i = 0; i < 3; ++i) {
        const auto P = sys.randomG1(rng);
        const auto Q = sys.randomG2(rng);
        ms.push_back(sys.engine().miller(P.x, P.y, Q.x, Q.y));
    }

    const Engine generic(sys.tower(), sys.plan(), CoordSystem::Jacobian,
                         false);
    for (size_t i = 0; i < ms.size(); ++i) {
        EXPECT_TRUE(
            sys.engine().finalExp(ms[i]).equals(generic.finalExp(ms[i])))
            << toString(sys.plan().hard) << " sample " << i;
    }
    covered.insert(sys.plan().hard);

    PairingPlan digits = sys.plan();
    digits.hard = HardPartKind::Digits;
    const Engine cyclo(sys.tower(), digits, CoordSystem::Jacobian, true);
    const Engine plain(sys.tower(), digits, CoordSystem::Jacobian, false);
    EXPECT_TRUE(cyclo.finalExp(ms[0]).equals(plain.finalExp(ms[0])))
        << "digits";
    covered.insert(HardPartKind::Digits);
}

TEST(Cyclotomic, NativeFinalExpMatchesGenericOnEveryCurve)
{
    std::set<HardPartKind> covered;
    u64 seed = 61;
    for (const CurveDef &def : curveCatalog()) {
        SCOPED_TRACE(def.name);
        if (def.family == CurveFamily::BLS24)
            expectFinalExpMatchesGeneric(curveSystem24(def.name), seed++,
                                         covered);
        else
            expectFinalExpMatchesGeneric(curveSystem12(def.name), seed++,
                                         covered);
    }
    EXPECT_EQ(covered,
              (std::set<HardPartKind>{HardPartKind::BNChain,
                                      HardPartKind::BLSChain,
                                      HardPartKind::Digits}));
}

TEST(Cyclotomic, ReducesLongOpsInTraces)
{
    // When the engine is told to use cyclotomic squaring, the compiled
    // final exponentiation must contain fewer Long (mul/sqr) ops.
    Framework fw("BN254N");
    CompileOptions plain;
    plain.part = TracePart::FinalExpOnly;
    plain.variants.cyclotomicSqr = false;
    CompileOptions cyclo = plain;
    cyclo.variants.cyclotomicSqr = true;
    const auto a = fw.compile(plain);
    const auto b = fw.compile(cyclo);
    EXPECT_LT(b.prog.module.countUnit(UnitClass::Mul),
              a.prog.module.countUnit(UnitClass::Mul));
    // And it still validates against the native reference.
    EXPECT_TRUE(fw.validate(b, 1, TracePart::FinalExpOnly).allPassed());
}

TEST(Cyclotomic, FullPairingWithCycloSqrValidates)
{
    Framework fw("BLS12-381");
    CompileOptions opt;
    opt.variants.cyclotomicSqr = true;
    const auto res = fw.compile(opt);
    EXPECT_TRUE(fw.validate(res, 1).allPassed());
}

} // namespace
} // namespace finesse
