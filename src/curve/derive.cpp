/**
 * @file
 * deriveCurveFacts (see catalog.h): the searches that find a curve's
 * facts from its family and x. CurveSystem never runs them: it loads
 * the facts a definition carries. A new curve's facts come from here
 * (examples/new_curve_bringup.cpp prints them as a catalog entry), and
 * test_allcurves runs the searches on every catalog curve and compares
 * with the pinned data.
 *
 * Point sampling draws its Tonelli-Shanks non-residues from one RNG
 * with a fixed seed, in a fixed order (b search, G1 generator, twist
 * selection, G2 generator), so the facts depend on (family, x) only.
 */
#include <type_traits>

#include "bigint/mont.h"
#include "curve/catalog.h"
#include "curve/point.h"
#include "curve/twist.h"
#include "field/tower.h"
#include "support/rng.h"

namespace finesse {

namespace {

template <typename TW>
class FactDerivation
{
  public:
    using FtT = typename TW::FtT;
    using G1Affine = AffinePt<Fp>;
    using G2Affine = AffinePt<FtT>;

    explicit FactDerivation(const CurveDef &def)
        : info_(deriveCurveInfo(def)), fp_(info_.p), setupRng_(0xf1e55e)
    {}

    CurveFacts
    run()
    {
        CurveFacts f;

        // Tower, on the default operator variants.
        searchTowerNonResidues(info_.p, f.q, f.xi0, f.xi1);
        buildTower(tower_, &fp_,
                   computeTowerParams(info_.p, info_.k, f.q, f.xi0, f.xi1),
                   VariantConfig{});

        // G1 curve: find the twist class with #E = p + 1 - t.
        const BigInt n1 = info_.p + BigInt(u64{1}) - info_.t;
        const BigInt g1Cofactor = n1.divExact(info_.r);
        CurveCtx<Fp> g1Curve;
        bool found = false;
        for (i64 bc = 1; bc <= 64 && !found; ++bc) {
            g1Curve = CurveCtx<Fp>{&fp_, Fp::fromInt(&fp_, bc)};
            found = curveOrderIs(g1Curve, n1, info_.p, 3);
            if (found)
                f.b = bc;
        }
        FINESSE_REQUIRE(found, "no b <= 64 with #E = p+1-t for ",
                        info_.def.name);

        // G1 generator (deterministic x scan, cofactor cleared).
        const G1Affine g1Gen = findGenerator(
            g1Curve, info_.p, g1Cofactor,
            [&](u64 i) { return Fp::fromInt(&fp_, i); },
            [&] { return randomFpElem(); });
        f.g1x = g1Gen.x.toBig();
        f.g1y = g1Gen.y.toBig();
        deriveG1Endomorphism(g1Curve, g1Gen, f);

        // Twist curve: order from the trace recurrence, then pick D/M.
        const int e = info_.k / 6;
        const BigInt twistOrder =
            sexticTwistOrder(info_.p, info_.t, e, info_.r);
        const BigInt g2Cofactor = twistOrder.divExact(info_.r);
        const BigInt qe = info_.p.pow(static_cast<u64>(e));
        const FtT bFt = muliSmall(FtT::one(tower_.ftCtx()), f.b);
        const FtT xi = tower_.twistXi();
        const CurveCtx<FtT> dTwist{tower_.ftCtx(), bFt.mul(xi.inv())};
        const CurveCtx<FtT> mTwist{tower_.ftCtx(), bFt.mul(xi)};
        CurveCtx<FtT> twistCurve;
        if (curveOrderIs(dTwist, twistOrder, qe, 2)) {
            f.twist = TwistType::D;
            twistCurve = dTwist;
        } else {
            FINESSE_REQUIRE(curveOrderIs(mTwist, twistOrder, qe, 2),
                            "neither twist has the expected order for ",
                            info_.def.name);
            f.twist = TwistType::M;
            twistCurve = mTwist;
        }

        // G2 generator.
        const G2Affine g2Gen = findGenerator(
            twistCurve, qe, g2Cofactor,
            [&](u64 i) {
                return muliSmall(FtT::one(tower_.ftCtx()),
                                 static_cast<i64>(i))
                    .add(FtT::gen(tower_.ftCtx()));
            },
            [&] { return randomFtElem(); });
        g2Gen.x.toFpCoeffs(f.g2x);
        g2Gen.y.toFpCoeffs(f.g2y);
        return f;
    }

  private:
    /**
     * beta = g^((p-1)/3) != 1 in Fp and lambda = h^((r-1)/3) != 1 mod r
     * for the smallest such g, h >= 2; then beta is swapped for beta^2
     * if that is the one that matches [lambda] on g1Gen. One
     * full-width scalar multiplication checks the match.
     */
    void
    deriveG1Endomorphism(const CurveCtx<Fp> &g1Curve, const G1Affine &g1Gen,
                         CurveFacts &f)
    {
        const BigInt one(u64{1}), three(u64{3});
        const BigInt &p = info_.p;
        const BigInt &r = info_.r;
        FINESSE_REQUIRE((p - one) % three == BigInt(u64{0}) &&
                            (r - one) % three == BigInt(u64{0}),
                        "no cube roots of unity for ", info_.def.name);
        Fp beta;
        for (i64 g = 2;; ++g) {
            beta = powBig(Fp::fromInt(&fp_, g), (p - one) / three);
            if (!beta.equals(Fp::one(&fp_)))
                break;
        }
        const MontCtx rCtx(r);
        BigInt lambda;
        for (u64 h = 2;; ++h) {
            Residue l{};
            rCtx.pow(l, rCtx.toMont(BigInt(h)), (r - one) / three);
            lambda = rCtx.fromMont(l);
            if (lambda != one)
                break;
        }
        const G1Affine lg = scalarMul(g1Curve, g1Gen, lambda);
        if (!lg.x.equals(g1Gen.x.mul(beta)))
            beta = beta.sqr();
        FINESSE_REQUIRE(lg.equals(G1Affine::make(g1Gen.x.mul(beta),
                                                 g1Gen.y)),
                        "phi(g1) != [lambda] g1 for ", info_.def.name);
        f.beta = beta.toBig();
        f.lambda = lambda;
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
    TW tower_;
};

} // namespace

CurveFacts
deriveCurveFacts(const CurveDef &def)
{
    if (def.family == CurveFamily::BLS24)
        return FactDerivation<NativeTower24>(def).run();
    return FactDerivation<NativeTower12>(def).run();
}

} // namespace finesse
