/**
 * @file
 * KZG polynomial commitments on BLS12-381 — the other SNARK primitive
 * the paper's introduction motivates (Kate-Zaverucha-Goldberg, used by
 * EIP-4844 and most modern proof systems).
 *
 * Scheme:
 *   setup:   SRS = { [tau^i] g1 }_i, [tau] g2       (trusted setup)
 *   commit:  C = [f(tau)] g1 via the SRS
 *   open:    at z, witness pi = [q(tau)] g1 where
 *            q(X) = (f(X) - f(z)) / (X - z)
 *   verify:  e(C - [f(z)] g1, g2) == e(pi, [tau] g2 - [z] g2)
 *
 * Verification is routed through the batch serving engine
 * (serve/verify.h): the honest opening and a tampered evaluation are
 * KzgRequests, batch-verified as one random-linear-combination
 * multi-pairing whose terms all merge onto the two constant G2 bases
 * {g2, [tau]g2} — a whole batch of openings against one SRS costs
 * exactly 2 Miller loops and one final exponentiation.
 */
#include <cstdio>
#include <vector>

#include "serve/verify.h"

using namespace finesse;

namespace {

/** Polynomial over Zr, little-endian coefficients. */
struct Poly
{
    std::vector<BigInt> c;

    BigInt
    eval(const BigInt &x, const BigInt &r) const
    {
        BigInt acc;
        for (size_t i = c.size(); i-- > 0;)
            acc = (acc * x + c[i]).mod(r);
        return acc;
    }
};

/** Synthetic division: q(X) = (f(X) - f(z)) / (X - z). */
Poly
quotient(const Poly &f, const BigInt &z, const BigInt &r)
{
    Poly q;
    q.c.assign(f.c.size() - 1, BigInt());
    BigInt carry; // running coefficient of the division
    for (size_t i = f.c.size(); i-- > 1;) {
        carry = (f.c[i] + carry * z).mod(r);
        q.c[i - 1] = carry;
    }
    return q;
}

} // namespace

int
main()
{
    const auto &sys = curveSystem12("BLS12-381");
    const BigInt &r = sys.info().r;
    Rng rng(31415);
    auto randScalar = [&] { return BigInt::randomBelow(rng, r); };

    std::printf("KZG commitments on BLS12-381\n");

    // ---- trusted setup (degree < 8) ------------------------------------
    const int kDegree = 8;
    const BigInt tau = randScalar(); // toxic waste
    std::vector<AffinePt<Fp>> srs;
    BigInt tpow(u64{1});
    for (int i = 0; i < kDegree; ++i) {
        srs.push_back(scalarMul(sys.g1Curve(), sys.g1Gen(), tpow));
        tpow = (tpow * tau).mod(r);
    }
    const auto tauG2 = scalarMul(sys.twistCurve(), sys.g2Gen(), tau);

    // ---- commit ----------------------------------------------------------
    Poly f;
    for (int i = 0; i < kDegree; ++i)
        f.c.push_back(randScalar());
    auto msm = [&](const Poly &p) {
        // Multi-scalar multiplication over the SRS (schoolbook).
        AffinePt<Fp> acc = AffinePt<Fp>::atInfinity();
        for (size_t i = 0; i < p.c.size(); ++i) {
            acc = affineAdd(sys.g1Curve(), acc,
                            scalarMul(sys.g1Curve(), srs[i], p.c[i]));
        }
        return acc;
    };
    const auto C = msm(f);
    std::printf("committed to a degree-%d polynomial\n", kDegree - 1);

    // ---- open at z --------------------------------------------------------
    const BigInt z = randScalar();
    const BigInt y = f.eval(z, r);
    const Poly q = quotient(f, z, r);
    const auto pi = msm(q);

    // ---- verify through the serving engine ---------------------------------
    // Honest opening and a tampered evaluation, batched: one RLC
    // product over the shared G2 bases decides both.
    KzgRequest honest;
    honest.commitment = C;
    honest.z = z;
    honest.y = y;
    honest.proof = pi;
    honest.tauG2 = tauG2;

    KzgRequest forged = honest;
    forged.y = (y + BigInt(u64{1})).mod(r);

    BatchVerifyStats stats;
    const std::vector<PairingCheck> checks = {
        reduceToCheck(sys, honest), reduceToCheck(sys, forged)};
    const std::vector<bool> verdicts = verifyBatch(sys, checks, 1, &stats);
    const bool ok = verdicts[0];
    const bool bad = verdicts[1];
    std::printf("open f(z) = y, verify: %s\n", ok ? "ACCEPT" : "REJECT");
    std::printf("tampered evaluation: %s\n",
                bad ? "ACCEPT (BUG!)" : "REJECT");

    // The batched verifier workload stays 2 Miller loops no matter the
    // batch size (both terms merge onto {g2, [tau]g2}); the bisection
    // here evaluates only the honest half, still on 2 bases, and
    // derives the forged half's value from the batch's.
    std::printf("batch stats: %zu products, %zu Miller loops, "
                "%zu bisect splits\n",
                stats.products, stats.pairings, stats.bisectSplits);
    return (ok && !bad) ? 0 : 1;
}
