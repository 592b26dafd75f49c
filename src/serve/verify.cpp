#include "serve/verify.h"

namespace finesse {

namespace {

/**
 * The finite terms of one pairing product, collected by G2 base
 * before any scaling; each G1 point carries its RLC scalar as the pair
 * (a, b) that stands for a + b lambda mod r (curve/msm.h). Quadratic
 * scan over the bases -- batches are tens of terms, the Miller loop
 * dominates by orders of magnitude.
 */
struct BaseGroups
{
    std::vector<const AffinePt<Fp2> *> bases;
    std::vector<std::vector<EndoTerm<Fp>>> g1;

    void
    add(const PairTerm &t, u64 a, u64 b)
    {
        if (t.g1.infinity || t.g2.infinity)
            return; // e(O, Q) = e(P, O) = 1
        size_t k = 0;
        while (k < bases.size() && !bases[k]->equals(t.g2))
            ++k;
        if (k == bases.size()) {
            bases.push_back(&t.g2);
            g1.emplace_back();
        }
        g1[k].push_back({t.g1, a, b});
    }
};

/**
 * One term per G2 base: the base and S_k, the sum of its scaled G1
 * terms. Each S_k is one multi-scalar multiplication (msmEndo), so a
 * merge trades a term's doubling/addition steps and line
 * multiplications in the shared Miller loop for G1 additions; all the
 * S_k convert to affine in one batch inversion.
 */
std::vector<PairTerm>
mergeByBase(const CurveSystem12 &sys, const BaseGroups &groups)
{
    const std::vector<AffinePt<Fp>> sums = jacToAffineBatch(
        msmEndo(sys.g1Curve(), sys.g1Beta(), groups.g1), &sys.fpCtx());
    std::vector<PairTerm> merged;
    merged.reserve(sums.size());
    for (size_t k = 0; k < sums.size(); ++k)
        merged.push_back({sums[k], *groups.bases[k]});
    return merged;
}

/** prod e(g1, g2) == 1 over merged terms (infinite sums drop out). */
bool
productIsOne(const CurveSystem12 &sys, const std::vector<PairTerm> &merged,
             BatchVerifyStats *stats)
{
    std::vector<std::pair<AffinePt<Fp>, AffinePt<Fp2>>> product;
    product.reserve(merged.size());
    for (const PairTerm &t : merged) {
        if (!t.g1.infinity)
            product.emplace_back(t.g1, t.g2);
    }
    if (stats != nullptr)
        stats->pairings += product.size();
    const Fp12 one = Fp12::one(sys.tower().gtCtx());
    return sys.pairProduct(product).equals(one);
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
        // A batch of one is checked alone from the start; only a leaf
        // that a split reached is a fallback.
        if (stats != nullptr && checks.size() > 1)
            stats->singleChecks++;
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
    if (stats != nullptr)
        stats->products++;
    BaseGroups groups;
    for (const PairTerm &t : check.terms)
        groups.add(t, 1, 0);
    return productIsOne(sys, mergeByBase(sys, groups), stats);
}

std::vector<PairTerm>
rlcMergedTerms(const CurveSystem12 &sys,
               const std::vector<const PairingCheck *> &checks, u64 seed)
{
    // Request j's scalar is r_j = a_j + b_j lambda mod r for two
    // uniform 64-bit words, nonzero as a zero scalar would drop the
    // request. Grouping before scaling makes each G2 base one MSM.
    FINESSE_REQUIRE(sys.endoScalarsInjective(),
                    "RLC scalars a + b lambda are not injective mod r for ",
                    sys.info().def.name);
    Rng rng(seed);
    BaseGroups groups;
    for (const PairingCheck *check : checks) {
        u64 a = rng.next();
        const u64 b = rng.next();
        if (a == 0 && b == 0)
            a = 1;
        for (const PairTerm &t : check->terms)
            groups.add(t, a, b);
    }
    return mergeByBase(sys, groups);
}

bool
verifyBatchRLC(const CurveSystem12 &sys,
               const std::vector<const PairingCheck *> &checks, u64 seed,
               BatchVerifyStats *stats)
{
    if (stats != nullptr)
        stats->products++;
    return productIsOne(sys, rlcMergedTerms(sys, checks, seed), stats);
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
