/**
 * @file
 * PairingPlan: the complete, serializable recipe for one curve's
 * optimal Ate pairing. Everything a PairingEngine needs beyond the
 * tower itself is plain data (NAF digits, twist type, Frobenius-on-twist
 * constants, final-exponentiation strategy), so the same plan drives
 * the native engine and the compiler's symbolic engine.
 */
#ifndef FINESSE_PAIRING_PLAN_H_
#define FINESSE_PAIRING_PLAN_H_

#include <vector>

#include "curve/catalog.h"
#include "field/fieldops.h"
#include "field/tower.h"
#include "pairing/chains.h"
#include "pairing/naf.h"

namespace finesse {

/** Final-exponentiation hard-part strategy. */
enum class HardPartKind {
    BNChain,   ///< Devegili-Scott-Dahab chain (BN family)
    BLSChain,  ///< Hayashida-style (x-1)^2 chains (BLS12/BLS24)
    Digits,    ///< generic base-p digit decomposition (always correct)
};

inline const char *
toString(HardPartKind k)
{
    switch (k) {
      case HardPartKind::BNChain:
        return "bn-chain";
      case HardPartKind::BLSChain:
        return "bls-chain";
      case HardPartKind::Digits:
        return "digits";
    }
    return "?";
}

/** Complete pairing recipe (plain data; see file comment). */
struct PairingPlan
{
    CurveFamily family = CurveFamily::BN;
    int k = 12;
    BigInt x;       ///< curve family parameter (signed)
    BigInt p, r;
    bool negLoop = false;      ///< Miller loop parameter is negative
    std::vector<int> loopNaf;  ///< NAF of |6x+2| (BN) or |x| (BLS)
    TwistType twist = TwistType::D;

    // Frobenius-on-twist constants (flattened Ft coefficients):
    // Q1 = (cX * sigma(x'), cY * sigma(y')) and Q2 = pi^2(Q) via
    // (cX2 * x', cY2 * y') (k = 12 only, where sigma^2 = id on Ft).
    std::vector<BigInt> frobTwX, frobTwY, frobTwX2, frobTwY2;

    HardPartKind hard = HardPartKind::Digits;
    std::vector<BigInt> hardDigits; ///< base-p digits, little-endian
};

/**
 * Verify that a hard-part chain computes f^(c * Phi_k(p)/r) with c a
 * unit mod r, by running the chain on exponents mod Phi_k(p).
 */
template <typename ChainFn>
bool
verifyHardChain(ChainFn chain, const BigInt &p, const BigInt &r,
                const BigInt &x, int k)
{
    const BigInt pk2 = p.pow(static_cast<u64>(k / 6) * 2);
    const BigInt pk6 = p.pow(static_cast<u64>(k / 6));
    const BigInt phi = pk2 - pk6 + BigInt(u64{1}); // Phi_k(p)
    const BigInt hard = phi.divExact(r);

    const ExpoSim f(BigInt(u64{1}), &phi, &p);
    const ExpoSim result = chain(f, x);
    const BigInt e = result.exponent();
    if (e.isZero())
        return false;
    // e must be a multiple of hard = phi/r ...
    if (!(e % hard).isZero())
        return false;
    // ... with a cofactor that is a unit mod r.
    const BigInt c = e.divExact(hard);
    return !(c % r).isZero() ? BigInt::gcd(c, r) == BigInt(u64{1}) : false;
}

/**
 * Build the pairing plan for a curve. @p tower is the *native* tower
 * (used to evaluate the Frobenius-on-twist constants).
 */
template <typename TW>
PairingPlan
makePairingPlan(const CurveInfo &info, TwistType twist, const TW &tower)
{
    using FtT = typename TW::FtT;

    PairingPlan plan;
    plan.family = info.def.family;
    plan.k = info.k;
    plan.x = info.def.x;
    plan.p = info.p;
    plan.r = info.r;

    // Miller loop parameter.
    BigInt u;
    if (plan.family == CurveFamily::BN) {
        u = BigInt(u64{6}) * plan.x + BigInt(u64{2});
    } else {
        u = plan.x;
    }
    plan.negLoop = u.isNegative();
    plan.loopNaf = nafDigits(u.abs());
    plan.twist = twist;

    // Frobenius-on-twist constants.
    const FtT xi = tower.twistXi();
    const BigInt pm1 = info.p - BigInt(u64{1});
    FtT cX, cY;
    if (twist == TwistType::D) {
        cX = powBig(xi, pm1.divExact(BigInt(u64{3})));
        cY = powBig(xi, pm1 >> 1);
    } else {
        cX = powBig(xi, pm1.divExact(BigInt(u64{3}))).inv();
        cY = powBig(xi, pm1 >> 1).inv();
    }
    cX.toFpCoeffs(plan.frobTwX);
    cY.toFpCoeffs(plan.frobTwY);
    if constexpr (TW::kEmbedding == 12) {
        // xi^((p^2-1)/3) and xi^((p^2-1)/2): xi^(p+1) = N(xi) lies in
        // Fp, so these are N(xi)^((p-1)/3) and N(xi)^((p-1)/2).
        const auto nXi = xi.norm();
        auto cX2 = powBig(nXi, pm1.divExact(BigInt(u64{3})));
        auto cY2 = powBig(nXi, pm1 >> 1);
        if (twist == TwistType::M) {
            cX2 = cX2.inv();
            cY2 = cY2.inv();
        }
        const auto zero = nXi.zeroLike();
        FtT(cX2, zero, xi.fieldCtx()).toFpCoeffs(plan.frobTwX2);
        FtT(cY2, zero, xi.fieldCtx()).toFpCoeffs(plan.frobTwY2);
    }

    // Final exponentiation: prefer the family chain when it verifies.
    bool chainOk = false;
    switch (plan.family) {
      case CurveFamily::BN:
        chainOk = verifyHardChain(
            [](const ExpoSim &f, const BigInt &xx) {
                return hardChainBN(f, xx);
            },
            info.p, info.r, plan.x, info.k);
        plan.hard = chainOk ? HardPartKind::BNChain : HardPartKind::Digits;
        break;
      case CurveFamily::BLS12:
        chainOk = verifyHardChain(
            [](const ExpoSim &f, const BigInt &xx) {
                return hardChainBLS12(f, xx);
            },
            info.p, info.r, plan.x, info.k);
        plan.hard = chainOk ? HardPartKind::BLSChain : HardPartKind::Digits;
        break;
      case CurveFamily::BLS24:
        chainOk = verifyHardChain(
            [](const ExpoSim &f, const BigInt &xx) {
                return hardChainBLS24(f, xx);
            },
            info.p, info.r, plan.x, info.k);
        plan.hard = chainOk ? HardPartKind::BLSChain : HardPartKind::Digits;
        break;
    }

    // Generic digit fallback data (always present; also used by tests).
    const int e6 = info.k / 6;
    const BigInt phi = info.p.pow(static_cast<u64>(e6) * 2) -
                       info.p.pow(static_cast<u64>(e6)) + BigInt(u64{1});
    BigInt hard = phi.divExact(info.r);
    while (!hard.isZero()) {
        BigInt q, rem;
        BigInt::divmod(hard, info.p, q, rem);
        plan.hardDigits.push_back(rem);
        hard = q;
    }
    return plan;
}

} // namespace finesse

#endif // FINESSE_PAIRING_PLAN_H_
