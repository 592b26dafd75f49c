/**
 * @file
 * CurveSystem: the fully-initialized native pairing system for one
 * catalog curve. Construction derives everything from (family, x):
 * field tower (with validated non-residues), curve constant b, twist
 * type and twist constant, cofactors (via the trace recurrence),
 * deterministic subgroup generators, the G1 endomorphism
 * phi(x, y) = (beta x, y) = [lambda] (curve/msm.h), and the pairing
 * plan (with a setup-verified final-exponentiation chain).
 *
 * Every check of that derivation runs on every construction, on exact
 * arithmetic that keeps it cheap: Miller-Rabin on p and r and the
 * lambda exponentiation on MontCtx (bigint/mont.h), and each square or
 * cube test -- tower irreducibility and the Tonelli-Shanks Legendre
 * tests of point sampling -- as a norm test down to Fp (powerResidue,
 * field/fieldops.h). The results are pinned by the setup.<curve> and
 * native.<curve> golden lines.
 *
 * This plays the role of the paper's reference libraries (RELIC/MCL):
 * the independent computational oracle against which compiled
 * accelerator programs are cross-validated.
 */
#ifndef FINESSE_PAIRING_SYSTEM_H_
#define FINESSE_PAIRING_SYSTEM_H_

#include <memory>

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

    explicit CurveSystem(const CurveDef &def)
        : info_(deriveCurveInfo(def)), fp_(info_.p), setupRng_(0xf1e55e)
    {
        FINESSE_REQUIRE(info_.k == TW::kEmbedding,
                        "tower shape mismatch for ", def.name);
        // Tower, on the default operator variants: the sweep's choice
        // only reaches the symbolic tower (compiler/codegen.h).
        searchTowerNonResidues(info_.p, q_, xi0_, xi1_);
        towerPrm_ = computeTowerParams(info_.p, info_.k, q_, xi0_, xi1_);
        buildTower(tower_, &fp_, towerPrm_, VariantConfig{});

        // G1 curve: find the twist class with #E = p + 1 - t.
        const BigInt n1 = info_.p + BigInt(u64{1}) - info_.t;
        g1Cofactor_ = n1.divExact(info_.r);
        bool found = false;
        for (i64 bc = 1; bc <= 64 && !found; ++bc) {
            g1Curve_ = CurveCtx<Fp>{&fp_, Fp::fromInt(&fp_, bc)};
            found = curveOrderIs(g1Curve_, n1, info_.p, 3);
            if (found)
                b_ = bc;
        }
        FINESSE_REQUIRE(found, "no b <= 64 with #E = p+1-t for ",
                        def.name);

        // G1 generator (deterministic x scan, cofactor cleared).
        g1Gen_ = findGenerator(g1Curve_, info_.p, g1Cofactor_,
                               [&](u64 i) { return Fp::fromInt(&fp_, i); },
                               [&] { return randomFpElem(); });
        deriveG1Endomorphism();

        // Twist curve: order from the trace recurrence, then pick D/M.
        const int e = info_.k / 6;
        twistOrder_ = sexticTwistOrder(info_.p, info_.t, e, info_.r);
        g2Cofactor_ = twistOrder_.divExact(info_.r);
        const BigInt qe = info_.p.pow(static_cast<u64>(e));
        const FtT bFt = muliSmall(FtT::one(tower_.ftCtx()), b_);
        const FtT xi = tower_.twistXi();
        const CurveCtx<FtT> dTwist{tower_.ftCtx(), bFt.mul(xi.inv())};
        const CurveCtx<FtT> mTwist{tower_.ftCtx(), bFt.mul(xi)};
        if (curveOrderIs(dTwist, twistOrder_, qe, 2)) {
            twistType_ = TwistType::D;
            twistCurve_ = dTwist;
        } else {
            FINESSE_REQUIRE(curveOrderIs(mTwist, twistOrder_, qe, 2),
                            "neither twist has the expected order for ",
                            def.name);
            twistType_ = TwistType::M;
            twistCurve_ = mTwist;
        }

        // G2 generator.
        g2Gen_ = findGenerator(
            twistCurve_, qe, g2Cofactor_,
            [&](u64 i) {
                return muliSmall(FtT::one(tower_.ftCtx()),
                                 static_cast<i64>(i))
                    .add(FtT::gen(tower_.ftCtx()));
            },
            [&] { return randomFtElem(); });

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
    /**
     * beta = g^((p-1)/3) != 1 in Fp and lambda = h^((r-1)/3) != 1 mod r
     * for the smallest such g, h >= 2; then beta is swapped for beta^2
     * if that is the one that matches [lambda] on g1Gen. One
     * full-width scalar multiplication checks the match. Injectivity
     * of 64-bit scalar pairs is only recorded: it holds on every
     * catalog curve, a toy curve with r below about 2^131 fails it,
     * and only the RLC batch verifier refuses such a curve.
     */
    void
    deriveG1Endomorphism()
    {
        const BigInt one(u64{1}), three(u64{3});
        const BigInt &p = info_.p;
        const BigInt &r = info_.r;
        FINESSE_REQUIRE((p - one) % three == BigInt(u64{0}) &&
                            (r - one) % three == BigInt(u64{0}),
                        "no cube roots of unity for ", info_.def.name);
        for (i64 g = 2;; ++g) {
            beta_ = powBig(Fp::fromInt(&fp_, g), (p - one) / three);
            if (!beta_.equals(Fp::one(&fp_)))
                break;
        }
        const MontCtx rCtx(r);
        for (u64 h = 2;; ++h) {
            Residue l{};
            rCtx.pow(l, rCtx.toMont(BigInt(h)), (r - one) / three);
            lambda_ = rCtx.fromMont(l);
            if (lambda_ != one)
                break;
        }
        const G1Affine lg = scalarMul(g1Curve_, g1Gen_, lambda_);
        if (!lg.x.equals(g1Gen_.x.mul(beta_)))
            beta_ = beta_.sqr();
        FINESSE_REQUIRE(lg.equals(G1Affine::make(g1Gen_.x.mul(beta_),
                                                 g1Gen_.y)),
                        "phi(g1) != [lambda] g1 for ", info_.def.name);
        endoScalarsInjective_ = endoPairsInjective(lambda_, r);
    }

    Fp
    randomFpElem()
    {
        return Fp::fromBig(&fp_, BigInt::randomBelow(setupRng_, info_.p));
    }

    FtT
    randomFtElem()
    {
        std::vector<BigInt> coeffs;
        for (int i = 0; i < TW::kFtDegree; ++i)
            coeffs.push_back(BigInt::randomBelow(setupRng_, info_.p));
        auto it = coeffs.begin();
        return FtT::fromFpCoeffs(tower_.ftCtx(), it);
    }

    /** Check #E = n by testing [n]P = O on several sampled points. */
    template <typename F>
    bool
    curveOrderIs(const CurveCtx<F> &c, const BigInt &n,
                 const BigInt &fieldOrder, int samples)
    {
        for (int k = 0; k < samples; ++k) {
            AffinePt<F> pt;
            try {
                pt = findPoint<F>(
                    c, fieldOrder,
                    [&](u64 i) {
                        if constexpr (std::is_same_v<F, Fp>) {
                            return Fp::fromInt(&fp_, i);
                        } else {
                            return muliSmall(F::one(c.field),
                                             static_cast<i64>(i))
                                .add(F::gen(c.field));
                        }
                    },
                    [&] {
                        if constexpr (std::is_same_v<F, Fp>) {
                            return randomFpElem();
                        } else {
                            return randomFtElem();
                        }
                    },
                    1 + 17 * k);
            } catch (const PanicError &) {
                return false;
            }
            if (!scalarMul(c, pt, n).infinity)
                return false;
        }
        return true;
    }

    /** Deterministic generator: scan x, clear cofactor, check order r. */
    template <typename F, typename MakeX, typename Sample>
    AffinePt<F>
    findGenerator(const CurveCtx<F> &c, const BigInt &fieldOrder,
                  const BigInt &cofactor, MakeX makeXFn, Sample sampleFn)
    {
        const std::function<F(u64)> makeX = makeXFn;
        const std::function<F()> sample = sampleFn;
        for (u64 start = 1; start < 64; ++start) {
            const AffinePt<F> pt =
                findPoint<F>(c, fieldOrder, makeX, sample, start);
            const AffinePt<F> g = scalarMul(c, pt, cofactor);
            if (g.infinity)
                continue;
            FINESSE_CHECK(scalarMul(c, g, info_.r).infinity,
                          "generator has wrong order");
            return g;
        }
        panic("no generator found");
    }

    CurveInfo info_;
    FpCtx fp_;
    Rng setupRng_;
    i64 q_ = -1, xi0_ = 1, xi1_ = 1;
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
