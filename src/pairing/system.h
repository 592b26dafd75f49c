/**
 * @file
 * CurveSystem: the fully-initialized native pairing system for one
 * curve: field tower, curve constant b, twist type and twist constant,
 * cofactors (via the trace recurrence), subgroup generators, the G1
 * endomorphism phi(x, y) = (beta x, y) = [lambda] (curve/msm.h), and
 * the pairing plan (with a setup-verified final-exponentiation chain).
 *
 * The construction loads the definition's CurveFacts (curve/
 * catalog.h); it runs no search. A curve outside the catalog gets its
 * facts from deriveCurveFacts first. The construction runs only cheap
 * checks: Miller-Rabin on p and r, irreducibility of every tower level
 * (computeTowerParams), each generator on its curve with [r]G = O
 * (which also confirms b and the twist type), beta != 1 with
 * phi(g1) = [lambda] g1, and the plan's chain check.
 * A failed check is fatal and names the curve and the fact. That the
 * pinned facts are the ones the searches find is held by
 * test_allcurves (FactsMatchDerivation); the setup.<curve> and
 * native.<curve> golden lines pin the loaded values.
 *
 * This plays the role of the paper's reference libraries (RELIC/MCL):
 * the independent computational oracle against which compiled
 * accelerator programs are cross-validated.
 */
#ifndef FINESSE_PAIRING_SYSTEM_H_
#define FINESSE_PAIRING_SYSTEM_H_

#include <memory>
#include <string>
#include <type_traits>

#include "curve/catalog.h"
#include "curve/msm.h"
#include "curve/point.h"
#include "curve/twist.h"
#include "pairing/engine.h"
#include "support/rng.h"

namespace finesse {

template <typename TW>
class CurveSystem
{
  public:
    using FtT = typename TW::FtT;
    using GtT = typename TW::GtT;
    using G1Affine = AffinePt<Fp>;
    using G2Affine = AffinePt<FtT>;

    /**
     * Loads def.facts and refuses (fatal, naming the curve and the
     * fact) facts that fail a check.
     */
    explicit CurveSystem(const CurveDef &def)
        : info_(deriveCurveInfo(def)), fp_(info_.p)
    {
        FINESSE_REQUIRE(info_.k == TW::kEmbedding,
                        "tower shape mismatch for ", def.name);
        const CurveFacts &facts = def.facts;
        const std::string &name = def.name;
        if (facts.b == 0)
            fatal(name, ": no facts (b = 0); derive them with "
                        "deriveCurveFacts");

        // Tower, on the default operator variants: the sweep's choice
        // only reaches the symbolic tower (compiler/codegen.h).
        try {
            towerPrm_ = computeTowerParams(info_.p, info_.k, facts.q,
                                           facts.xi0, facts.xi1);
        } catch (const FatalError &err) {
            fatal(name, ": tower non-residues q = ", facts.q, ", xi = ",
                  facts.xi0, ",", facts.xi1, ": ", err.what());
        }
        buildTower(tower_, &fp_, towerPrm_, VariantConfig{});

        // Curves. r divides the order of only one curve class over Fp
        // and one twist over Ft, so generators of order r on them
        // confirm b and the twist type.
        b_ = facts.b;
        twistType_ = facts.twist;
        g1Curve_ = CurveCtx<Fp>{&fp_, Fp::fromInt(&fp_, b_)};
        const FtT bFt = muliSmall(FtT::one(tower_.ftCtx()), b_);
        const FtT xi = tower_.twistXi();
        twistCurve_ = CurveCtx<FtT>{
            tower_.ftCtx(),
            twistType_ == TwistType::D ? bFt.mul(xi.inv()) : bFt.mul(xi)};
        g1Cofactor_ = (info_.p + BigInt(u64{1}) - info_.t)
                          .divExact(info_.r);
        twistOrder_ =
            sexticTwistOrder(info_.p, info_.t, info_.k / 6, info_.r);
        g2Cofactor_ = twistOrder_.divExact(info_.r);

        g1Gen_ = loadGenerator(g1Curve_, {facts.g1x}, {facts.g1y},
                               "g1 generator");
        g2Gen_ = loadGenerator(twistCurve_, facts.g2x, facts.g2y,
                               "g2 generator");
        if (!isOnCurve(g1Curve_, g1Gen_))
            fatal(name, ": g1 generator is not on y^2 = x^3 + b with b = ",
                  b_);
        if (!isOnCurve(twistCurve_, g2Gen_))
            fatal(name, ": g2 generator is not on the twist with b = ", b_,
                  ", twist = ", toString(twistType_), ", xi = ", facts.xi0,
                  ",", facts.xi1);
        if (!scalarMul(g1Curve_, g1Gen_, info_.r).infinity)
            fatal(name, ": g1 generator does not have order r");
        if (!scalarMul(twistCurve_, g2Gen_, info_.r).infinity)
            fatal(name, ": g2 generator does not have order r");

        // G1 endomorphism: (beta x, y) on the curve makes beta a cube
        // root of unity, so with beta != 1 and g1 of prime order r,
        // phi(g1) = [lambda] g1 holds only for a primitive beta and the
        // lambda it acts as.
        requireCanonical(facts.beta, info_.p, "beta");
        requireCanonical(facts.lambda, info_.r, "lambda");
        if (facts.beta == BigInt(u64{1}))
            fatal(name, ": beta = 1 is not a primitive cube root of unity");
        beta_ = Fp::fromBig(&fp_, facts.beta);
        lambda_ = facts.lambda;
        if (!scalarMul(g1Curve_, g1Gen_, lambda_)
                 .equals(G1Affine::make(g1Gen_.x.mul(beta_), g1Gen_.y)))
            fatal(name, ": phi(g1) = (beta x, y) != [lambda] g1 for the "
                        "pinned beta and lambda");
        endoScalarsInjective_ = endoPairsInjective(lambda_, info_.r);

        // Pairing plan + engine.
        plan_ = makePairingPlan(info_, twistType_, tower_);
        engine_ = std::make_unique<PairingEngine<TW>>(
            tower_, plan_, CoordSystem::Jacobian, /*cycloSqr=*/true);
    }

    // Accessors ----------------------------------------------------------
    const CurveInfo &info() const { return info_; }
    const TW &tower() const { return tower_; }
    const TowerParams &towerParams() const { return towerPrm_; }
    const PairingPlan &plan() const { return plan_; }
    const PairingEngine<TW> &engine() const { return *engine_; }
    const CurveCtx<Fp> &g1Curve() const { return g1Curve_; }
    const CurveCtx<FtT> &twistCurve() const { return twistCurve_; }
    TwistType twistType() const { return twistType_; }
    i64 b() const { return b_; }
    const G1Affine &g1Gen() const { return g1Gen_; }
    const G2Affine &g2Gen() const { return g2Gen_; }
    const BigInt &g1Cofactor() const { return g1Cofactor_; }
    const BigInt &g2Cofactor() const { return g2Cofactor_; }
    const FpCtx &fpCtx() const { return fp_; }
    /** beta of phi(x, y) = (beta x, y), which acts on G1 as [lambda]. */
    const Fp &g1Beta() const { return beta_; }
    const BigInt &g1Lambda() const { return lambda_; }
    /**
     * True when (a, b) -> a + b lambda mod r is injective on pairs of
     * 64-bit words (endoPairsInjective, curve/msm.h).
     */
    bool endoScalarsInjective() const { return endoScalarsInjective_; }

    // Group sampling -------------------------------------------------------
    // The Jacobian variants defer the affine conversion so batch
    // samplers can fold many Z inversions into one Montgomery-trick
    // batch (jacToAffineBatch); they consume the identical RNG stream.
    JacPt<Fp>
    randomG1Jac(Rng &rng) const
    {
        const BigInt s =
            BigInt::randomBelow(rng, info_.r - BigInt(u64{1})) +
            BigInt(u64{1});
        return scalarMulJac(g1Curve_, g1Gen_, s);
    }

    JacPt<FtT>
    randomG2Jac(Rng &rng) const
    {
        const BigInt s =
            BigInt::randomBelow(rng, info_.r - BigInt(u64{1})) +
            BigInt(u64{1});
        return scalarMulJac(twistCurve_, g2Gen_, s);
    }

    G1Affine
    randomG1(Rng &rng) const
    {
        return jacToAffine(randomG1Jac(rng), &fp_);
    }

    G2Affine
    randomG2(Rng &rng) const
    {
        return jacToAffine(randomG2Jac(rng), twistCurve_.field);
    }

    // Pairing ---------------------------------------------------------------
    GtT
    pair(const G1Affine &p, const G2Affine &q) const
    {
        FINESSE_REQUIRE(!p.infinity && !q.infinity,
                        "pairing inputs must be finite points");
        return engine_->pair(p.x, p.y, q.x, q.y);
    }

    /**
     * Product of pairings prod_i e(P_i, Q_i) sharing one final
     * exponentiation. Terms with a point at infinity contribute
     * e(O, Q) = e(P, O) = 1 and are skipped; an all-infinity (or
     * empty) product is the GT identity. This is the entry point of
     * the batch-verification serving engine (src/serve/): one Miller
     * loop shared by all finite terms (PairingEngine::multiMiller),
     * one final exponentiation per product.
     */
    GtT
    pairProduct(
        const std::vector<std::pair<G1Affine, G2Affine>> &terms) const
    {
        std::vector<typename PairingEngine<TW>::PairInput> inputs;
        inputs.reserve(terms.size());
        for (const auto &[p, q] : terms) {
            if (p.infinity || q.infinity)
                continue;
            inputs.push_back({p.x, p.y, q.x, q.y});
        }
        if (inputs.empty())
            return GtT::one(tower_.gtCtx());
        return engine_->pairProduct(inputs);
    }

    /** GT exponentiation (plain square-and-multiply). */
    GtT
    gtPow(const GtT &g, const BigInt &e) const
    {
        return powBig(g, e.mod(info_.r));
    }

  private:
    /** Fatal unless 0 <= v < bound. */
    void
    requireCanonical(const BigInt &v, const BigInt &bound,
                     const char *what) const
    {
        if (v.isNegative() || v >= bound)
            fatal(info_.def.name, ": ", what, " is not reduced: ",
                  v.toHexString());
    }

    /**
     * A pinned point with canonical coordinates (Ft coordinates as
     * kFtDegree-long coefficient lists); the curve checks follow.
     */
    template <typename F>
    AffinePt<F>
    loadGenerator(const CurveCtx<F> &c, const std::vector<BigInt> &x,
                  const std::vector<BigInt> &y, const char *what) const
    {
        const size_t degree = std::is_same_v<F, Fp> ? 1 : TW::kFtDegree;
        if (x.size() != degree || y.size() != degree)
            fatal(info_.def.name, ": ", what, " needs ", degree,
                  " coefficients per coordinate");
        for (const BigInt &v : x)
            requireCanonical(v, info_.p, what);
        for (const BigInt &v : y)
            requireCanonical(v, info_.p, what);
        return AffinePt<F>::make(detail::elemFromCoeffs<F>(c.field, x),
                                 detail::elemFromCoeffs<F>(c.field, y));
    }

    CurveInfo info_;
    FpCtx fp_;
    TowerParams towerPrm_;
    TW tower_;
    i64 b_ = 0;
    CurveCtx<Fp> g1Curve_;
    CurveCtx<FtT> twistCurve_;
    TwistType twistType_ = TwistType::D;
    BigInt twistOrder_, g1Cofactor_, g2Cofactor_;
    G1Affine g1Gen_;
    G2Affine g2Gen_;
    Fp beta_;
    BigInt lambda_;
    bool endoScalarsInjective_ = false;
    PairingPlan plan_;
    std::unique_ptr<PairingEngine<TW>> engine_;
};

using CurveSystem12 = CurveSystem<NativeTower12>;
using CurveSystem24 = CurveSystem<NativeTower24>;

} // namespace finesse

#endif // FINESSE_PAIRING_SYSTEM_H_
