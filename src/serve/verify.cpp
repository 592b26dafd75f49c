#include "serve/verify.h"

#include <algorithm>

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

/**
 * prod e(g1, g2) over merged terms (infinite sums drop out): one
 * pairing product, one final exponentiation.
 */
Fp12
productValue(const CurveSystem12 &sys, const std::vector<PairTerm> &merged,
             BatchVerifyStats *stats)
{
    std::vector<std::pair<AffinePt<Fp>, AffinePt<Fp2>>> product;
    product.reserve(merged.size());
    for (const PairTerm &t : merged) {
        if (!t.g1.infinity)
            product.emplace_back(t.g1, t.g2);
    }
    if (stats != nullptr) {
        stats->products++;
        stats->pairings += product.size();
    }
    return sys.pairProduct(product);
}

/** Request j's RLC scalar r_j = a + b lambda mod r (curve/msm.h). */
struct RlcScalar
{
    u64 a, b;
};

/**
 * One scalar per request, drawn in index order from @p seed as two
 * uniform 64-bit words; (0, 0) is redrawn as (1, 0), as a zero scalar
 * would drop the request.
 */
std::vector<RlcScalar>
drawScalars(const CurveSystem12 &sys, size_t n, u64 seed)
{
    FINESSE_REQUIRE(sys.endoScalarsInjective(),
                    "RLC scalars a + b lambda are not injective mod r for ",
                    sys.info().def.name);
    Rng rng(seed);
    std::vector<RlcScalar> scalars(n);
    for (RlcScalar &s : scalars) {
        s.a = rng.next();
        s.b = rng.next();
        if (s.a == 0 && s.b == 0)
            s.a = 1;
    }
    return scalars;
}

/**
 * The merged terms of requests [lo, hi) under their scalars. Grouping
 * before scaling makes each G2 base one MSM.
 */
std::vector<PairTerm>
mergeRange(const CurveSystem12 &sys,
           const std::vector<const PairingCheck *> &checks,
           const std::vector<RlcScalar> &scalars, size_t lo, size_t hi)
{
    BaseGroups groups;
    for (size_t j = lo; j < hi; ++j) {
        for (const PairTerm &t : checks[j]->terms)
            groups.add(t, scalars[j].a, scalars[j].b);
    }
    return mergeByBase(sys, groups);
}

/**
 * Bisection of one batch over GT values under one scalar draw. A node
 * [lo, hi) has the value V = prod_{j in [lo, hi)} e_j^{r_j}, where e_j
 * is request j's own product; a node with V = 1 accepts its range.
 */
struct Bisection
{
    const CurveSystem12 &sys;
    const std::vector<const PairingCheck *> &checks;
    const std::vector<RlcScalar> scalars;
    std::vector<bool> &verdicts;
    BatchVerifyStats *stats;
    const Fp12 one = Fp12::one(sys.tower().gtCtx());

    Fp12
    value(size_t lo, size_t hi) const
    {
        return productValue(sys, mergeRange(sys, checks, scalars, lo, hi),
                            stats);
    }

    /**
     * Fill verdicts[lo, hi) from the node's value @p v. A one-request
     * node counts as a single check whether its value was computed or
     * derived; with V != 1 it rejects (its verdict stays false) at no
     * further cost, as V = e_j^{r_j} and r_j != 0 mod r.
     */
    void
    settle(size_t lo, size_t hi, const Fp12 &v)
    {
        if (v.equals(one)) {
            std::fill(verdicts.begin() + lo, verdicts.begin() + hi, true);
        } else if (hi - lo > 1) {
            split(lo, hi, v);
        }
        if (hi - lo == 1 && stats != nullptr)
            stats->singleChecks++;
    }

    /**
     * A failed node costs one product: only the left half is
     * evaluated, and the right half is V / V_L = V conj(V_L), as a
     * final-exponentiation output lies in the cyclotomic subgroup,
     * where conjugation inverts.
     */
    void
    split(size_t lo, size_t hi, const Fp12 &v)
    {
        if (stats != nullptr)
            stats->bisectSplits++;
        const size_t mid = lo + (hi - lo) / 2;
        const Fp12 left = value(lo, mid);
        settle(lo, mid, left);
        settle(mid, hi, v.mul(left.conj()));
    }
};

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
    BaseGroups groups;
    for (const PairTerm &t : check.terms)
        groups.add(t, 1, 0);
    return productValue(sys, mergeByBase(sys, groups), stats)
        .equals(Fp12::one(sys.tower().gtCtx()));
}

std::vector<PairTerm>
rlcMergedTerms(const CurveSystem12 &sys,
               const std::vector<const PairingCheck *> &checks, u64 seed)
{
    return mergeRange(sys, checks, drawScalars(sys, checks.size(), seed), 0,
                      checks.size());
}

std::vector<bool>
verifyBatch(const CurveSystem12 &sys,
            const std::vector<PairingCheck> &checks, u64 seed,
            BatchVerifyStats *stats)
{
    std::vector<bool> verdicts(checks.size(), false);
    if (checks.size() < 2) {
        // A batch of one is verified alone: no draw, no fallback.
        if (!checks.empty())
            verdicts[0] = verifySingle(sys, checks[0], stats);
        return verdicts;
    }
    std::vector<const PairingCheck *> ptrs;
    ptrs.reserve(checks.size());
    for (const PairingCheck &c : checks)
        ptrs.push_back(&c);
    Bisection b{sys, ptrs, drawScalars(sys, checks.size(), seed), verdicts,
                stats};
    b.settle(0, checks.size(), b.value(0, checks.size()));
    return verdicts;
}

} // namespace finesse
