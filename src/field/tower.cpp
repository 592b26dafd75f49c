/**
 * @file
 * Native computation of tower parameters: validation of non-residue
 * choices (irreducibility of every tower level) and precomputation of
 * the Frobenius constant tables that the compiler later treats as
 * lowering constants. Every square and cube test is a powerResidue
 * norm test (field/fieldops.h); the q test exponentiates on MontCtx.
 */
#include "field/tower.h"

#include "field/fieldops.h"

namespace finesse {

namespace {

/** Flatten a native element's Fp coefficients. */
template <typename F>
std::vector<BigInt>
flat(const F &x)
{
    std::vector<BigInt> v;
    x.toFpCoeffs(v);
    return v;
}

/** q^((p-1)/2) mod p on Montgomery arithmetic: p - 1 for a non-residue. */
BigInt
eulerCriterion(const FpCtx &fp, i64 q)
{
    const MontCtx &mont = fp.mont;
    Residue r{};
    mont.pow(r, mont.toMont(BigInt(q)), (fp.modulus() - BigInt(u64{1})) >> 1);
    return mont.fromMont(r);
}

} // namespace

TowerParams
computeTowerParams(const BigInt &p, int k, i64 q, i64 xi0, i64 xi1)
{
    FINESSE_REQUIRE(k == 12 || k == 24, "unsupported embedding degree ", k);
    FINESSE_REQUIRE((p % BigInt(u64{6})) == BigInt(u64{1}),
                    "towers require p = 1 mod 6");

    TowerParams prm;
    prm.k = k;
    prm.p = p;
    prm.q = q;
    prm.xi0 = xi0;
    prm.xi1 = xi1;

    FpCtx fp(p);
    const BigInt pm1 = p - BigInt(u64{1});

    // Level Fp2: q must be a quadratic non-residue mod p.
    const BigInt qpow = eulerCriterion(fp, q);
    FINESSE_REQUIRE(qpow == pm1, "q = ", q,
                    " is not a quadratic non-residue mod p");
    prm.frobC2 = {qpow};

    QuadCtx<Fp> fp2ctx;
    fp2ctx.base = &fp;
    fp2ctx.nu = NuDesc::smallInt(q);
    fp2ctx.degree = 2;
    fp2ctx.frobC1 = Fp::fromBig(&fp, qpow);

    const Fp2 one2 = Fp2::one(&fp2ctx);
    const Fp2 xi = one2.mulBySmallPair(xi0, xi1);

    if (k == 12) {
        // Fp6 = Fp2[v]/(v^3 - xi) and Fp12 = Fp6[w]/(w^2 - v) need xi to
        // be neither a square nor a cube in Fp2.
        FINESSE_REQUIRE(!powerResidue(xi, 2), "xi is a square in Fp2");
        FINESSE_REQUIRE(!powerResidue(xi, 3), "xi is a cube in Fp2");

        const Fp2 c6 = powBig(xi, pm1.divExact(BigInt(u64{3})));
        prm.frobMid1 = flat(c6);
        prm.frobCub2 = flat(c6.sqr());

        CubicCtx<Fp2> fp6ctx;
        fp6ctx.base = &fp2ctx;
        fp6ctx.nu = NuDesc::quadSmall(xi0, xi1);
        fp6ctx.degree = 6;
        fp6ctx.frobC1 = c6;
        fp6ctx.frobC2 = c6.sqr();

        const Fp6 v = Fp6::gen(&fp6ctx);
        prm.frobTop = flat(powBig(v, pm1 >> 1));
        return prm;
    }

    // k == 24.
    // Fp4 = Fp2[s]/(s^2 - xi): xi must be a non-square in Fp2.
    FINESSE_REQUIRE(!powerResidue(xi, 2), "xi is a square in Fp2");
    const Fp2 c4 = powBig(xi, pm1 >> 1);
    prm.frobMid1 = flat(c4);

    QuadCtx<Fp2> fp4ctx;
    fp4ctx.base = &fp2ctx;
    fp4ctx.nu = NuDesc::quadSmall(xi0, xi1);
    fp4ctx.degree = 4;
    fp4ctx.frobC1 = c4;

    // Fp12' = Fp4[v]/(v^3 - s): s must be a non-cube in Fp4.
    const Fp4 s = Fp4::gen(&fp4ctx);
    FINESSE_REQUIRE(!powerResidue(s, 3), "s is a cube in Fp4");

    const Fp4 c12 = powBig(s, pm1.divExact(BigInt(u64{3})));
    prm.frobCub1 = flat(c12);
    prm.frobCub2 = flat(c12.sqr());

    CubicCtx<Fp4> fp12ctx;
    fp12ctx.base = &fp4ctx;
    fp12ctx.nu = NuDesc::baseGen();
    fp12ctx.degree = 12;
    fp12ctx.frobC1 = c12;
    fp12ctx.frobC2 = c12.sqr();

    // Fp24 = Fp12'[w]/(w^2 - v): v must be a non-square in Fp12'.
    const Fp12b v = Fp12b::gen(&fp12ctx);
    FINESSE_REQUIRE(!powerResidue(v, 2), "v is a square in Fp12'");

    prm.frobTop = flat(powBig(v, pm1 >> 1));
    return prm;
}

void
searchTowerNonResidues(const BigInt &p, i64 &q, i64 &xi0, i64 &xi1)
{
    const BigInt pm1 = p - BigInt(u64{1});
    const FpCtx fp(p);
    static const i64 qCandidates[] = {-1, -2, -3, -5, 2,  3,
                                      5,  7,  -7, 11, -11};
    for (i64 qc : qCandidates) {
        if (eulerCriterion(fp, qc) != pm1)
            continue;
        // xi candidates: small coefficient pairs, preferring 1 + u.
        static const std::pair<i64, i64> xiCandidates[] = {
            {1, 1},  {0, 1}, {1, -1}, {2, 1}, {1, 2}, {3, 1},
            {-1, 1}, {2, 3}, {1, 3},  {4, 1}, {5, 1}, {1, 4}};
        QuadCtx<Fp> fp2ctx;
        fp2ctx.base = &fp;
        fp2ctx.nu = NuDesc::smallInt(qc);
        fp2ctx.degree = 2;
        fp2ctx.frobC1 = Fp::fromBig(&fp, pm1);
        const Fp2 one2 = Fp2::one(&fp2ctx);
        for (auto [a, b] : xiCandidates) {
            const Fp2 xi = one2.mulBySmallPair(a, b);
            if (xi.isZero())
                continue;
            if (powerResidue(xi, 2))
                continue; // square
            if (powerResidue(xi, 3))
                continue; // cube
            q = qc;
            xi0 = a;
            xi1 = b;
            return;
        }
    }
    fatal("no small tower non-residues found for p = ", p.toHexString());
}

} // namespace finesse
