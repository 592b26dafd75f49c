/**
 * @file
 * Optimal Ate pairing engine, generic over the tower instantiation.
 *
 * The engine is entirely branch-free with respect to *element values*:
 * control flow depends only on the PairingPlan (curve constants), so
 * the identical code path computes pairings natively and, when the
 * tower is instantiated over the symbolic base field, unrolls into the
 * single-basic-block Fp-level SSA trace that the paper's CodeGen stage
 * produces.
 *
 * Formula notes (derived for y^2 = x^3 + b, a = 0, Jacobian coordinates
 * on the twist; lines are scaled by Ft factors, which the final
 * exponentiation kills):
 *   doubling step, T = (X, Y, Z):
 *     lambda' = 3X^2 / (2YZ); scale by Z3*Z^2 (Z3 = 2YZ):
 *     l = (Z3 Z^2 yP) + (-3X^2 Z^2 xP) z + (3X^3 - 2Y^2) z^3
 *   mixed addition step with affine Q2 = (xq, yq):
 *     theta = Y - yq Z^3, H = X - xq Z^2, Z3 = H Z:
 *     l = (Z3 yP) + (-theta xP) z + (theta xq - yq Z3) z^3
 *
 * GT = Ft[z]/(z^6 - xi_t) is stored as (a0 + a1 v + a2 v^2) +
 * (b0 + b1 v + b2 v^2) w with z = w, so slots (0..5) are
 * (a0, b0, a1, b1, a2, b2). Both twists evaluate a line at P to the
 * same three values l0 = c0 yP, l3 = c3 and lx = c1 xP. A D-twist line
 * is l0 + lx w + l3 w^3: slots (0, 1, 3). An M-twist line is
 * xi l0 + l3 w^3 + lx w^5; it is kept scaled by w^3/xi, as
 * l3 + lx w^2 + l0 w^3: slots (0, 2, 3) (Aranha et al., "Faster
 * explicit formulas for computing pairings over ordinary curves").
 * (w^3/xi)^2 = 1/xi lies in Ft, so w^3/xi lies in GF(p^(k/3)), whose
 * units the easy part of the final exponentiation kills, as it kills
 * the Ft scalings above.
 *
 * There is one Miller loop, multiMiller: a product of terms
 * (Granger-Smart, "On computing products of pairings") with one
 * accumulator squaring per loop bit for all terms, and each line folded
 * in by a sparse multiply of 13 Ft muls for either twist, against 18
 * for a dense one (Beuchat et al., Pairing 2010). miller is its
 * one-term case, so multiMiller(terms) == prod miller(term) exactly.
 */
#ifndef FINESSE_PAIRING_ENGINE_H_
#define FINESSE_PAIRING_ENGINE_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "pairing/cyclotomic.h"
#include "pairing/plan.h"

namespace finesse {

template <typename TW>
class PairingEngine
{
  public:
    using FpT = typename TW::BaseT;
    using FtT = typename TW::FtT;
    using GtT = typename TW::GtT;

    /** Twist point in Jacobian coordinates (loop-internal). */
    struct TwistJac
    {
        FtT x, y, z;
    };

    /**
     * A line evaluated at P: l0 = c0 yP, l3 = c3 and lx = c1 xP, in
     * GT slots (0, 3, 1) for a D twist and (3, 0, 2) for an M twist.
     */
    struct Line
    {
        FtT l0, l3, lx;
    };

    /**
     * @p coords is the twist-point coordinate system of the Miller
     * loop; @p cycloSqr routes the hard part's squarings through
     * cyclotomic squaring. Both change the cost, never the pairing.
     */
    PairingEngine(const TW &tower, const PairingPlan &plan,
                  CoordSystem coords, bool cycloSqr)
        : tower_(tower), plan_(plan), coords_(coords),
          cycloSqr_(cycloSqr)
    {
        auto load = [&](const std::vector<BigInt> &coeffs) {
            auto it = coeffs.begin();
            return FtT::fromFpCoeffs(tower_.ftCtx(), it);
        };
        if (!plan.frobTwX.empty()) {
            cX_ = load(plan.frobTwX);
            cY_ = load(plan.frobTwY);
        }
        if (!plan.frobTwX2.empty()) {
            cX2_ = load(plan.frobTwX2);
            cY2_ = load(plan.frobTwY2);
        }
    }

    /** Whether the hard part squares cyclotomically. */
    bool cycloSqr() const { return cycloSqr_; }

    /** Full pairing e(P, Q) for affine inputs. */
    GtT
    pair(const FpT &xP, const FpT &yP, const FtT &xQ, const FtT &yQ) const
    {
        return finalExp(miller(xP, yP, xQ, yQ));
    }

    /** One (P, Q) input pair for multi-pairing. */
    struct PairInput
    {
        FpT xP, yP;
        FtT xQ, yQ;
    };

    /**
     * Product of pairings prod_i e(P_i, Q_i) with one shared final
     * exponentiation — the SNARK-verifier workload (Groth16 checks a
     * product of three/four pairings).
     */
    GtT
    pairProduct(const std::vector<PairInput> &inputs) const
    {
        return finalExp(multiMiller(inputs));
    }

    /**
     * prod_i miller(P_i, Q_i) in one shared loop: the accumulator is
     * squared once per loop bit, then every term's line is folded in
     * sparsely. Equal in GT to the product of the single-term loops.
     */
    GtT
    multiMiller(const std::vector<PairInput> &inputs) const
    {
        FINESSE_REQUIRE(!inputs.empty(), "empty pairing product");
        std::vector<TwistJac> Ts;
        Ts.reserve(inputs.size());
        for (const PairInput &in : inputs)
            Ts.push_back({in.xQ, in.yQ, FtT::one(tower_.ftCtx())});
        GtT f = GtT::one(tower_.gtCtx());

        const auto &naf = plan_.loopNaf;
        for (size_t i = 1; i < naf.size(); ++i) {
            if (i > 1) // f = 1 on the first bit
                f = f.sqr();
            for (size_t j = 0; j < inputs.size(); ++j) {
                const PairInput &in = inputs[j];
                mulByLine(f, dblStep(Ts[j], in.xP, in.yP));
                if (naf[i] == 1)
                    mulByLine(f, addStep(Ts[j], in.xQ, in.yQ, in.xP, in.yP));
                else if (naf[i] == -1)
                    mulByLine(f, addStep(Ts[j], in.xQ, in.yQ.neg(), in.xP,
                                         in.yP));
            }
        }

        if (plan_.negLoop) {
            f = f.conj();
            for (TwistJac &T : Ts)
                T.y = T.y.neg();
        }

        if (plan_.family == CurveFamily::BN) {
            for (size_t j = 0; j < inputs.size(); ++j) {
                const PairInput &in = inputs[j];
                const FtT x1 = cX_.mul(in.xQ.frob());
                const FtT y1 = cY_.mul(in.yQ.frob());
                mulByLine(f, addStep(Ts[j], x1, y1, in.xP, in.yP));
                const FtT x2 = cX2_.mul(in.xQ);
                const FtT y2 = cY2_.mul(in.yQ).neg();
                mulByLine(f, addStep(Ts[j], x2, y2, in.xP, in.yP));
            }
        }
        return f;
    }

    /** Miller loop (Algorithm 1, lines 5-14): the one-term product. */
    GtT
    miller(const FpT &xP, const FpT &yP, const FtT &xQ, const FtT &yQ) const
    {
        return multiMiller({{xP, yP, xQ, yQ}});
    }

    /** Final exponentiation f^((p^k - 1)/r). */
    GtT
    finalExp(const GtT &in) const
    {
        // Easy part: f^((p^(k/2) - 1)(p^(k/6) + 1)).
        GtT f = in.conj().mul(in.inv());
        f = frobPow(f, plan_.k / 6).mul(f);
        // Hard part: f^(Phi_k(p)/r) (up to a unit multiple). After the
        // easy part f lies in the cyclotomic subgroup, enabling
        // Granger-Scott squaring when requested.
        if (cycloSqr_) {
            using CubicCtxT =
                std::decay_t<decltype(*tower_.cubicCtx())>;
            const CycloElem<GtT, CubicCtxT> wrapped(
                f, tower_.cubicCtx());
            return hardPart(wrapped).value();
        }
        return hardPart(f);
    }

    /** Hard part on any group-like element (GtT or CycloElem). */
    template <typename G>
    G
    hardPart(const G &f) const
    {
        switch (plan_.hard) {
          case HardPartKind::BNChain:
            return hardChainBN(f, plan_.x);
          case HardPartKind::BLSChain:
            return plan_.k == 12 ? hardChainBLS12(f, plan_.x)
                                 : hardChainBLS24(f, plan_.x);
          case HardPartKind::Digits: {
            G acc = powBig(f, plan_.hardDigits[0]);
            G fp = f;
            for (size_t i = 1; i < plan_.hardDigits.size(); ++i) {
                fp = fp.frob();
                acc = acc.mul(powBig(fp, plan_.hardDigits[i]));
            }
            return acc;
          }
        }
        panic("bad HardPartKind");
    }

    /** Double T and evaluate the tangent line at P. */
    Line
    dblStep(TwistJac &T, const FpT &xP, const FpT &yP) const
    {
        if (coords_ == CoordSystem::Projective)
            return dblStepProjective(T, xP, yP);
        const FtT A = T.x.sqr();
        const FtT B = T.y.sqr();
        const FtT C = B.sqr();
        const FtT Zsq = T.z.sqr();
        const FtT D = T.x.add(B).sqr().sub(A).sub(C).dbl(); // 4XY^2
        const FtT E = A.tpl();                              // 3X^2
        const FtT F = E.sqr();
        const FtT X3 = F.sub(D.dbl());
        const FtT Y3 = E.mul(D.sub(X3)).sub(muliSmall(C, 8));
        const FtT Z3 = T.y.add(T.z).sqr().sub(B).sub(Zsq); // 2YZ

        const FtT c0 = Z3.mul(Zsq);
        const FtT c1 = E.mul(Zsq).neg();
        const FtT c3 = E.mul(T.x).sub(B.dbl()); // 3X^3 - 2Y^2
        T = {X3, Y3, Z3};
        return evalLine(c0, c1, c3, xP, yP);
    }

    /** Add affine (xq, yq) into T and evaluate the line at P. */
    Line
    addStep(TwistJac &T, const FtT &xq, const FtT &yq, const FpT &xP,
            const FpT &yP) const
    {
        if (coords_ == CoordSystem::Projective)
            return addStepProjective(T, xq, yq, xP, yP);
        const FtT Zsq = T.z.sqr();
        const FtT U2 = xq.mul(Zsq);
        const FtT S2 = yq.mul(Zsq).mul(T.z);
        const FtT H = T.x.sub(U2);
        const FtT TH = T.y.sub(S2); // theta
        const FtT HH = H.sqr();
        const FtT HHH = HH.mul(H);
        const FtT X3 = TH.sqr().sub(HH.mul(T.x.add(U2)));
        const FtT Y3 = TH.mul(U2.mul(HH).sub(X3)).sub(S2.mul(HHH));
        const FtT Z3 = H.mul(T.z);

        const FtT c0 = Z3;
        const FtT c1 = TH.neg();
        const FtT c3 = TH.mul(xq).sub(yq.mul(Z3));
        T = {X3, Y3, Z3};
        return evalLine(c0, c1, c3, xP, yP);
    }

    /**
     * Homogeneous-projective doubling variant (x = X/Z, y = Y/Z).
     * Derivation scales the line by 2YZ^2 (an Ft factor).
     */
    Line
    dblStepProjective(TwistJac &T, const FpT &xP, const FpT &yP) const
    {
        const FtT A = T.x.sqr().tpl();      // 3X^2
        const FtT ysq = T.y.sqr();
        const FtT B = T.y.mul(T.z).dbl();   // 2YZ
        const FtT t = T.x.mul(ysq).mul(T.z); // XY^2 Z
        const FtT u = ysq.mul(T.z);          // Y^2 Z
        const FtT x3p = A.sqr().sub(muliSmall(t, 8)); // A^2 - 8XY^2 Z
        const FtT X3 = x3p.mul(B);
        const FtT Y3 =
            A.mul(muliSmall(t, 4).sub(x3p)).sub(muliSmall(u.sqr(), 8));
        const FtT Z3 = B.sqr().mul(B);

        const FtT c0 = B.mul(T.z);            // 2YZ^2
        const FtT c1 = A.mul(T.z).neg();      // -3X^2 Z
        const FtT c3 = A.mul(T.x).sub(u.dbl()); // 3X^3 - 2Y^2 Z
        T = {X3, Y3, Z3};
        return evalLine(c0, c1, c3, xP, yP);
    }

    /** Homogeneous-projective mixed addition variant. */
    Line
    addStepProjective(TwistJac &T, const FtT &xq, const FtT &yq,
                      const FpT &xP, const FpT &yP) const
    {
        const FtT t = xq.mul(T.z);
        const FtT TH = T.y.sub(yq.mul(T.z)); // theta
        const FtT H = T.x.sub(t);
        const FtT HH = H.sqr();
        const FtT HHH = HH.mul(H);
        const FtT W = TH.sqr().mul(T.z).sub(HH.mul(T.x.add(t)));
        const FtT X3 = H.mul(W);
        const FtT Y3 =
            TH.mul(HH.mul(t).sub(W)).sub(yq.mul(HHH).mul(T.z));
        const FtT Z3 = HHH.mul(T.z);

        const FtT c0 = H;
        const FtT c1 = TH.neg();
        const FtT c3 = TH.mul(xq).sub(yq.mul(H));
        T = {X3, Y3, Z3};
        return evalLine(c0, c1, c3, xP, yP);
    }

  private:
    template <typename>
    friend struct PairingEngineTestPeer;

    using CubicT = std::decay_t<decltype(std::declval<GtT>().c0())>;

    /** Evaluate the Ft-scaled line (c0, c1, c3) at P. */
    Line
    evalLine(const FtT &c0, const FtT &c1, const FtT &c3, const FpT &xP,
             const FpT &yP) const
    {
        return {c0.scaleScalar(yP), c3, c1.scaleScalar(xP)};
    }

    /**
     * f *= l without spreading l. With f = a + b w and l = A + B w
     * (w^2 = v), Karatsuba gives
     *   f l = (a A + v b B) + ((a + b)(A + B) - a A - b B) w.
     * A D-twist line has A = l0 and B = lx + l3 v; an M-twist line has
     * A = l3 + lx v and B = l0 v. Either way one product is an Ft
     * scaling (3 Ft muls) and the other two multiply by a
     * two-coefficient cubic (5 each): 13 Ft muls.
     */
    void
    mulByLine(GtT &f, const Line &l) const
    {
        const CubicT &a = f.c0();
        const CubicT &b = f.c1();
        const auto *ctx = f.fieldCtx();
        const bool d = plan_.twist == TwistType::D;
        const CubicT aA = d ? a.scale(l.l0) : mulBy01(a, l.l3, l.lx);
        const CubicT bB =
            d ? mulBy01(b, l.lx, l.l3) : b.scale(l.l0).mulByGen();
        const CubicT t = d ? mulBy01(a.add(b), l.l0.add(l.lx), l.l3)
                           : mulBy01(a.add(b), l.l3, l.lx.add(l.l0));
        f = GtT{aA.add(ctx->mulByNu(bB)), t.sub(aA).sub(bB), ctx};
    }

    /** c * (x0 + x1 v) in 5 Ft muls. */
    static CubicT
    mulBy01(const CubicT &c, const FtT &x0, const FtT &x1)
    {
        const FtT v0 = c.c0().mul(x0);
        const FtT v1 = c.c1().mul(x1);
        const auto *ctx = c.fieldCtx();
        return {v0.add(ctx->mulByNu(c.c2().mul(x1))),
                c.c0().add(c.c1()).mul(x0.add(x1)).sub(v0).sub(v1),
                v1.add(c.c2().mul(x0)), ctx};
    }

    const TW &tower_;
    const PairingPlan &plan_;
    CoordSystem coords_ = CoordSystem::Jacobian;
    bool cycloSqr_ = false;
    FtT cX_, cY_, cX2_, cY2_;
};

} // namespace finesse

#endif // FINESSE_PAIRING_ENGINE_H_
