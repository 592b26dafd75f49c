/**
 * @file
 * Tower-field shapes for embedding degrees 12 (BN, BLS12) and 24 (BLS24).
 *
 * A tower is described by serializable parameters (TowerParams: the Fp2
 * non-residue q, the Fp6/Fp4 non-residue xi, and the precomputed
 * Frobenius constants as flat Fp coefficient lists). The generic
 * builders can then instantiate the tower over *any* base element type:
 * the native Fp for computation, or the compiler's symbolic SymFp for IR
 * generation. This mirrors the paper's "constants needed in lowering
 * mappings fit in a small table" abstraction-overhead argument.
 *
 * Tower shapes (canonical chains along the divisor lattice of 24):
 *   k = 12: Fp2 = Fp[u]/(u^2 - q); Fp6 = Fp2[v]/(v^3 - xi);
 *           Fp12 = Fp6[w]/(w^2 - v)
 *   k = 24: Fp2 = Fp[u]/(u^2 - q); Fp4 = Fp2[s]/(s^2 - xi);
 *           Fp12' = Fp4[v]/(v^3 - s); Fp24 = Fp12'[w]/(w^2 - v)
 * In both cases GT = Ft[z]/(z^6 - xi_t) with z = w and Ft = Fp^(k/6),
 * which is the representation the twist/line arithmetic relies on.
 */
#ifndef FINESSE_FIELD_TOWER_H_
#define FINESSE_FIELD_TOWER_H_

#include <array>
#include <vector>

#include "field/ext.h"
#include "field/fp.h"

namespace finesse {

/** Serialized tower description (shape + Frobenius constant tables). */
struct TowerParams
{
    int k = 12; ///< embedding degree: 12 or 24
    BigInt p;   ///< base field modulus
    i64 q = -1; ///< Fp2 non-residue (u^2 = q)
    i64 xi0 = 1, xi1 = 1; ///< xi = xi0 + xi1*u over Fp2

    // Frobenius constants, flattened to Fp coefficients.
    std::vector<BigInt> frobC2;    ///< q^((p-1)/2) in Fp           (1)
    std::vector<BigInt> frobMid1;  ///< k12: xi^((p-1)/3) in Fp2    (2)
                                   ///< k24: xi^((p-1)/2) in Fp2    (2)
    std::vector<BigInt> frobCub1;  ///< k12: unused; k24: s^((p-1)/3)
                                   ///< in Fp4                       (4)
    std::vector<BigInt> frobCub2;  ///< square of the cubic constant
    std::vector<BigInt> frobTop;   ///< v^((p-1)/2) in Fp^(k/2)
};

/**
 * Compute tower parameters natively for embedding degree 12 or 24,
 * validating irreducibility of every level (fatal on bad q/xi choices).
 */
TowerParams computeTowerParams(const BigInt &p, int k, i64 q, i64 xi0,
                               i64 xi1);

/**
 * Search small (q, xi) defining a valid tower for modulus p: the
 * smallest |q| non-residue and the smallest xi = xi0 + xi1*u that is
 * neither a square nor a cube in Fp2.
 */
void searchTowerNonResidues(const BigInt &p, i64 &q, i64 &xi0, i64 &xi1);

/** Embedding-degree 12 tower over base element type FpT. */
template <typename FpT>
struct Tower12
{
    using Fp2T = QuadExt<FpT>;
    using Fp6T = CubicExt<Fp2T>;
    using Fp12T = QuadExt<Fp6T>;
    using BaseT = FpT;
    using FtT = Fp2T;  ///< field of the twist curve (G2 coordinates)
    using GtT = Fp12T; ///< target-group field

    static constexpr int kEmbedding = 12;
    static constexpr int kFtDegree = 2;

    Tower12() = default;
    Tower12(const Tower12 &) = delete;
    Tower12 &operator=(const Tower12 &) = delete;

    const typename FpT::Ctx *fp = nullptr;
    QuadCtx<FpT> fp2;
    CubicCtx<Fp2T> fp6;
    QuadCtx<Fp6T> fp12;
    i64 xi0 = 0, xi1 = 0;

    const typename FpT::Ctx *fpCtx() const { return fp; }
    const typename FtT::Ctx *ftCtx() const { return &fp2; }
    const typename GtT::Ctx *gtCtx() const { return &fp12; }
    const CubicCtx<Fp2T> *cubicCtx() const { return &fp6; }

    /** xi_t with z^6 = xi_t over Ft (the twist constant). */
    FtT
    twistXi() const
    {
        return FtT::one(&fp2).mulBySmallPair(xi0, xi1);
    }

    /** Assemble a GT element from its six z-slot coefficients. */
    GtT
    fromSlots(const std::array<FtT, 6> &s) const
    {
        Fp6T a{s[0], s[2], s[4], &fp6};
        Fp6T b{s[1], s[3], s[5], &fp6};
        return {std::move(a), std::move(b), &fp12};
    }
};

/** Embedding-degree 24 tower over base element type FpT. */
template <typename FpT>
struct Tower24
{
    using Fp2T = QuadExt<FpT>;
    using Fp4T = QuadExt<Fp2T>;
    using Fp12T = CubicExt<Fp4T>;
    using Fp24T = QuadExt<Fp12T>;
    using BaseT = FpT;
    using FtT = Fp4T;
    using GtT = Fp24T;

    static constexpr int kEmbedding = 24;
    static constexpr int kFtDegree = 4;

    Tower24() = default;
    Tower24(const Tower24 &) = delete;
    Tower24 &operator=(const Tower24 &) = delete;

    const typename FpT::Ctx *fp = nullptr;
    QuadCtx<FpT> fp2;
    QuadCtx<Fp2T> fp4;
    CubicCtx<Fp4T> fp12;
    QuadCtx<Fp12T> fp24;
    i64 xi0 = 0, xi1 = 0;

    const typename FpT::Ctx *fpCtx() const { return fp; }
    const typename FtT::Ctx *ftCtx() const { return &fp4; }
    const typename GtT::Ctx *gtCtx() const { return &fp24; }
    const CubicCtx<Fp4T> *cubicCtx() const { return &fp12; }

    /** z^6 = s = generator of Fp4. */
    FtT
    twistXi() const
    {
        return FtT::gen(&fp4);
    }

    GtT
    fromSlots(const std::array<FtT, 6> &s) const
    {
        Fp12T a{s[0], s[2], s[4], &fp12};
        Fp12T b{s[1], s[3], s[5], &fp12};
        return {std::move(a), std::move(b), &fp24};
    }
};

namespace detail {

template <typename F>
F
elemFromCoeffs(const typename F::Ctx *ctx, const std::vector<BigInt> &v)
{
    auto it = v.begin();
    F r = F::fromFpCoeffs(ctx, it);
    FINESSE_CHECK(it == v.end(), "coefficient count mismatch");
    return r;
}

} // namespace detail

/**
 * Build a degree-12 tower over FpT from serialized parameters. FpT may
 * be the native Fp or the compiler's symbolic base type.
 */
template <typename FpT>
void
buildTower(Tower12<FpT> &t, const typename FpT::Ctx *fpctx,
           const TowerParams &prm, const VariantConfig &vc)
{
    FINESSE_CHECK(prm.k == 12);
    t.fp = fpctx;
    t.xi0 = prm.xi0;
    t.xi1 = prm.xi1;

    t.fp2.base = fpctx;
    t.fp2.nu = NuDesc::smallInt(prm.q);
    t.fp2.degree = 2;
    t.fp2.variants = vc.level(2);
    t.fp2.frobC1 = detail::elemFromCoeffs<FpT>(fpctx, prm.frobC2);

    t.fp6.base = &t.fp2;
    t.fp6.nu = NuDesc::quadSmall(prm.xi0, prm.xi1);
    t.fp6.degree = 6;
    t.fp6.variants = vc.level(6);
    if (t.fp6.variants.sqr == SqrVariant::Complex)
        t.fp6.variants.sqr = SqrVariant::CHSqr3; // cubic default
    t.fp6.frobC1 =
        detail::elemFromCoeffs<typename Tower12<FpT>::Fp2T>(&t.fp2,
                                                            prm.frobMid1);
    t.fp6.frobC2 =
        prm.frobCub2.empty()
            ? t.fp6.frobC1.sqr()
            : detail::elemFromCoeffs<typename Tower12<FpT>::Fp2T>(
                  &t.fp2, prm.frobCub2);

    t.fp12.base = &t.fp6;
    t.fp12.nu = NuDesc::baseGen();
    t.fp12.degree = 12;
    t.fp12.variants = vc.level(12);
    t.fp12.frobC1 =
        detail::elemFromCoeffs<typename Tower12<FpT>::Fp6T>(&t.fp6,
                                                            prm.frobTop);
}

/** Build a degree-24 tower over FpT from serialized parameters. */
template <typename FpT>
void
buildTower(Tower24<FpT> &t, const typename FpT::Ctx *fpctx,
           const TowerParams &prm, const VariantConfig &vc)
{
    FINESSE_CHECK(prm.k == 24);
    t.fp = fpctx;
    t.xi0 = prm.xi0;
    t.xi1 = prm.xi1;

    t.fp2.base = fpctx;
    t.fp2.nu = NuDesc::smallInt(prm.q);
    t.fp2.degree = 2;
    t.fp2.variants = vc.level(2);
    t.fp2.frobC1 = detail::elemFromCoeffs<FpT>(fpctx, prm.frobC2);

    t.fp4.base = &t.fp2;
    t.fp4.nu = NuDesc::quadSmall(prm.xi0, prm.xi1);
    t.fp4.degree = 4;
    t.fp4.variants = vc.level(4);
    t.fp4.frobC1 =
        detail::elemFromCoeffs<typename Tower24<FpT>::Fp2T>(&t.fp2,
                                                            prm.frobMid1);

    t.fp12.base = &t.fp4;
    t.fp12.nu = NuDesc::baseGen();
    t.fp12.degree = 12;
    t.fp12.variants = vc.level(12);
    if (t.fp12.variants.sqr == SqrVariant::Complex)
        t.fp12.variants.sqr = SqrVariant::CHSqr3; // cubic default
    t.fp12.frobC1 =
        detail::elemFromCoeffs<typename Tower24<FpT>::Fp4T>(&t.fp4,
                                                            prm.frobCub1);
    t.fp12.frobC2 =
        detail::elemFromCoeffs<typename Tower24<FpT>::Fp4T>(&t.fp4,
                                                            prm.frobCub2);

    t.fp24.base = &t.fp12;
    t.fp24.nu = NuDesc::baseGen();
    t.fp24.degree = 24;
    t.fp24.variants = vc.level(24);
    t.fp24.frobC1 =
        detail::elemFromCoeffs<typename Tower24<FpT>::Fp12T>(&t.fp12,
                                                             prm.frobTop);
}

/** Native tower aliases. */
using NativeTower12 = Tower12<Fp>;
using NativeTower24 = Tower24<Fp>;

using Fp2 = NativeTower12::Fp2T;
using Fp6 = NativeTower12::Fp6T;
using Fp12 = NativeTower12::Fp12T;
using Fp4 = NativeTower24::Fp4T;
using Fp12b = NativeTower24::Fp12T;
using Fp24 = NativeTower24::Fp24T;

} // namespace finesse

#endif // FINESSE_FIELD_TOWER_H_
