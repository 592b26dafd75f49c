#include "serve/verify.h"

namespace finesse {

namespace {

/**
 * Evaluate prod e(g1, g2) == 1 for already-scaled terms, merging
 * terms that share a G2 base first: each merge trades one term's
 * doubling/addition steps and line multiplications in the shared
 * Miller loop for one (much cheaper) G1 Jacobian addition. Quadratic
 * scan over the term list — batches are tens of terms, the Miller
 * loop dominates by orders of magnitude.
 */
bool
productIsOne(const CurveSystem12 &sys,
             const std::vector<PairTerm> &terms, BatchVerifyStats *stats)
{
    std::vector<AffinePt<Fp2>> bases;
    std::vector<JacPt<Fp>> sums;
    const FpCtx *fp = &sys.fpCtx();
    for (const PairTerm &t : terms) {
        if (t.g1.infinity || t.g2.infinity)
            continue; // e(O, Q) = e(P, O) = 1
        size_t k = 0;
        for (; k < bases.size(); ++k) {
            if (bases[k].equals(t.g2))
                break;
        }
        if (k == bases.size()) {
            bases.push_back(t.g2);
            sums.push_back(JacPt<Fp>::fromAffine(t.g1, fp));
        } else {
            sums[k] = jacAddAffine(sums[k], t.g1, fp);
        }
    }
    const std::vector<AffinePt<Fp>> merged = jacToAffineBatch(sums, fp);
    std::vector<std::pair<AffinePt<Fp>, AffinePt<Fp2>>> product;
    product.reserve(merged.size());
    for (size_t k = 0; k < merged.size(); ++k) {
        if (!merged[k].infinity)
            product.emplace_back(merged[k], bases[k]);
    }
    if (stats != nullptr)
        stats->pairings += product.size();
    const Fp12 one = Fp12::one(sys.tower().gtCtx());
    return sys.pairProduct(product).equals(one);
}

/** Nonzero 128-bit RLC scalar (far below any catalog group order). */
BigInt
rlcScalar(Rng &rng)
{
    const BigInt r = BigInt::randomBits(rng, 128);
    return r.isZero() ? BigInt(u64{1}) : r;
}

/** Per-sub-batch seed: decorrelate the recursion's RLC draws. */
u64
mixSeed(u64 seed, u64 lo, u64 hi)
{
    u64 x = seed ^ (lo * 0x9e3779b97f4a7c15ull) ^
            (hi * 0xc2b2ae3d27d4eb4full);
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 32;
    return x;
}

/** Bisection: fill verdicts[lo, hi) matching single verification. */
void
bisect(const CurveSystem12 &sys, const std::vector<PairingCheck> &checks,
       size_t lo, size_t hi, u64 seed, std::vector<bool> &verdicts,
       BatchVerifyStats *stats)
{
    if (hi - lo == 1) {
        verdicts[lo] = verifySingle(sys, checks[lo], stats);
        return;
    }
    std::vector<const PairingCheck *> sub;
    sub.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i)
        sub.push_back(&checks[i]);
    if (verifyBatchRLC(sys, sub, mixSeed(seed, lo, hi), stats)) {
        for (size_t i = lo; i < hi; ++i)
            verdicts[i] = true;
        return;
    }
    if (stats != nullptr)
        stats->bisectSplits++;
    const size_t mid = lo + (hi - lo) / 2;
    bisect(sys, checks, lo, mid, seed, verdicts, stats);
    bisect(sys, checks, mid, hi, seed, verdicts, stats);
}

} // namespace

PairingCheck
reduceToCheck(const CurveSystem12 &sys, const VerifyRequest &req)
{
    PairingCheck check;
    if (const auto *bls = std::get_if<BlsRequest>(&req)) {
        // e(sigma, g2) == e(H, pk)  <=>  e(-sigma, g2) e(H, pk) == 1.
        check.terms.push_back({bls->signature.negate(), sys.g2Gen()});
        check.terms.push_back({bls->msgHash, bls->publicKey});
    } else if (const auto *kzg = std::get_if<KzgRequest>(&req)) {
        // e(C - [y]g1, g2) == e(pi, [tau]g2 - [z]g2)
        //   <=>  e(C - [y]g1 + [z]pi, g2) e(-pi, [tau]g2) == 1
        // (the [z]g2 shift moves to the G1 side via bilinearity, so
        // both G2 bases are per-SRS constants the batcher can merge).
        const CurveCtx<Fp> &g1c = sys.g1Curve();
        const AffinePt<Fp> zPi = scalarMul(g1c, kzg->proof, kzg->z);
        const AffinePt<Fp> yG1 =
            scalarMul(g1c, sys.g1Gen(), kzg->y.mod(sys.info().r));
        const AffinePt<Fp> lhs = affineAdd(
            g1c, affineAdd(g1c, kzg->commitment, zPi), yG1.negate());
        check.terms.push_back({lhs, sys.g2Gen()});
        check.terms.push_back({kzg->proof.negate(), kzg->tauG2});
    } else {
        const auto &zk = std::get<ZkRequest>(req);
        // e(A, B) == e(alpha, beta) e(L, gamma) e(C, delta).
        check.terms.push_back({zk.proofA.negate(), zk.proofB});
        check.terms.push_back({zk.alphaG1, zk.betaG2});
        check.terms.push_back({zk.inputL, zk.gammaG2});
        check.terms.push_back({zk.proofC, zk.deltaG2});
    }
    return check;
}

bool
verifySingle(const CurveSystem12 &sys, const PairingCheck &check,
             BatchVerifyStats *stats)
{
    if (stats != nullptr) {
        stats->products++;
        stats->singleChecks++;
    }
    return productIsOne(sys, check.terms, stats);
}

bool
verifyBatchRLC(const CurveSystem12 &sys,
               const std::vector<const PairingCheck *> &checks, u64 seed,
               BatchVerifyStats *stats)
{
    Rng rng(seed);
    const CurveCtx<Fp> &g1c = sys.g1Curve();

    // Scale every term's G1 point by its request's scalar. The
    // Jacobian results convert to affine in ONE batch inversion
    // before the merge (productIsOne consumes affine G1).
    std::vector<JacPt<Fp>> scaled;
    std::vector<const AffinePt<Fp2> *> g2s;
    for (const PairingCheck *check : checks) {
        const BigInt r = rlcScalar(rng);
        for (const PairTerm &t : check->terms) {
            if (t.g1.infinity || t.g2.infinity)
                continue;
            scaled.push_back(scalarMulJac(g1c, t.g1, r));
            g2s.push_back(&t.g2);
        }
    }
    const std::vector<AffinePt<Fp>> affine =
        jacToAffineBatch(scaled, &sys.fpCtx());
    std::vector<PairTerm> terms;
    terms.reserve(affine.size());
    for (size_t i = 0; i < affine.size(); ++i)
        terms.push_back({affine[i], *g2s[i]});
    if (stats != nullptr)
        stats->products++;
    return productIsOne(sys, terms, stats);
}

std::vector<bool>
verifyBatch(const CurveSystem12 &sys,
            const std::vector<PairingCheck> &checks, u64 seed,
            BatchVerifyStats *stats)
{
    std::vector<bool> verdicts(checks.size(), false);
    if (checks.empty())
        return verdicts;
    bisect(sys, checks, 0, checks.size(), seed, verdicts, stats);
    return verdicts;
}

} // namespace finesse
