/**
 * @file
 * Batched pairing verification: the request shapes served by the
 * engine (BLS signatures, KZG openings, Groth16-style zk proofs), the
 * canonical pairing-product form they reduce to, and the
 * random-linear-combination (RLC) batch verifier.
 *
 * Canonical form. Every request reduces to a PairingCheck: a list of
 * (P_i in G1, Q_i in G2) terms with the semantics
 *
 *     accept  <=>  prod_i e(P_i, Q_i) == 1  in GT.
 *
 * Single verification evaluates the product directly (one Miller loop
 * shared by all terms, one final exponentiation -- PairingEngine::
 * pairProduct). Batch verification draws an independent scalar r_j
 * per request and checks
 *
 *     prod_j prod_i e([r_j] P_{j,i}, Q_{j,i}) == 1.
 *
 * This holds for all-valid batches. When any request is invalid it
 * fails except with probability ~2^-128: the r_j prevent an
 * adversary -- or an unlucky pair of bad requests -- from cancelling
 * across requests.
 *
 * Scalar form. r_j is drawn as two uniform 64-bit words (a_j, b_j)
 * and stands for a_j + b_j lambda mod r, where phi(x, y) = (beta x, y)
 * acts on G1 as [lambda] (curve/msm.h), so [r_j] P = [a_j] P +
 * [b_j] phi(P) and no scalar is ever decomposed. The RLC pass
 * requires the map (a, b) -> a + b lambda mod r to be injective on
 * 64-bit words (CurveSystem::endoScalarsInjective, true on every
 * catalog curve; the lattice argument is at endoPairsInjective in
 * curve/msm.h). So r_j is uniform over 2^128 residues and the
 * ~2^-128 bound stands. (a, b) = (0, 0) is redrawn as (1, 0), as a
 * zero scalar would drop the request.
 *
 * phi = [lambda] holds only on G1. Like the bound itself, this code
 * assumes every G1 point lies in the order-r subgroup; nothing on the
 * serve path checks that yet (ROADMAP: serving trust boundary).
 *
 * Merging. Terms whose G2 points are equal are grouped before
 * scaling, and each group's scaled G1 points are summed as one
 * multi-scalar multiplication (msmEndo: shared doublings, one batch
 * inversion for every group's tables). A BLS batch collapses all
 * signature terms onto the shared g2 generator (N+1 terms for N
 * requests). A KZG batch collapses onto {g2, [tau]g2} (2 terms total).
 * A Groth16 batch with a shared verification key collapses onto N+3.
 * One final exponentiation covers the whole batch either way.
 *
 * Bisection. When a batch fails, verifyBatch() bisects over GT values
 * (Law & Matt, "Finding invalid signatures in pairing-based batches",
 * 2007). The scalars are drawn once per batch, in request order from
 * the seed, and a node [lo, hi) has the value
 *
 *     V = prod_{j in [lo, hi)} e_j^{r_j},   e_j = request j's product.
 *
 * A node with V = 1 accepts its whole range. A failed node costs one
 * product: only its left half V_L is evaluated, and the right half is
 * derived as V_R = V conj(V_L) (a final-exponentiation output lies in
 * the cyclotomic subgroup, where conjugation inverts). A one-request
 * node with V != 1 rejects at no further cost, since V = e_j^{r_j}
 * with r_j != 0 mod r. One bad request in N = 2^k costs 1 + k
 * products, and a node whose value is 1 is never split.
 *
 * Soundness is that of one RLC pass. A derived value is exact GT
 * algebra, under the same G1/G2 subgroup assumption that the RLC pass
 * and phi already make. Only "V = 1 => every request in the node is
 * valid" is probabilistic: over the one draw per batch it fails with
 * probability at most (2N - 1) 2^-128, union-bounded over the 2N - 1
 * nodes of the tree. Verdicts are deterministic for a fixed seed and
 * identical to per-request single verification (differential-tested
 * in tests/test_serve.cpp).
 */
#ifndef FINESSE_SERVE_VERIFY_H_
#define FINESSE_SERVE_VERIFY_H_

#include <variant>
#include <vector>

#include "pairing/cache.h"

namespace finesse {

/**
 * BLS short-signature verification (signature in G1, public key in
 * G2): accept iff e(sigma, g2) == e(H(m), pk). The message hash is a
 * precomputed G1 point — hashing is the transport layer's job.
 */
struct BlsRequest
{
    AffinePt<Fp> signature; ///< sigma = [sk] H(m)
    AffinePt<Fp> msgHash;   ///< H(m)
    AffinePt<Fp2> publicKey; ///< pk = [sk] g2
};

/**
 * KZG opening verification: accept iff
 * e(C - [y] g1, g2) == e(pi, [tau] g2 - [z] g2).
 */
struct KzgRequest
{
    AffinePt<Fp> commitment; ///< C = [f(tau)] g1
    BigInt z;                ///< evaluation point
    BigInt y;                ///< claimed evaluation f(z)
    AffinePt<Fp> proof;      ///< pi = [q(tau)] g1
    AffinePt<Fp2> tauG2;     ///< [tau] g2 from the SRS
};

/**
 * Groth16-style verification: accept iff
 * e(A, B) == e(alpha, beta) * e(L, gamma) * e(C, delta).
 */
struct ZkRequest
{
    AffinePt<Fp> proofA, proofC, inputL;
    AffinePt<Fp2> proofB;
    // Verification key.
    AffinePt<Fp> alphaG1;
    AffinePt<Fp2> betaG2, gammaG2, deltaG2;
};

using VerifyRequest = std::variant<BlsRequest, KzgRequest, ZkRequest>;

/** One e(g1, g2) factor of a pairing-product check. */
struct PairTerm
{
    AffinePt<Fp> g1;
    AffinePt<Fp2> g2;
};

/** Canonical form: accept iff prod e(g1_i, g2_i) == 1. */
struct PairingCheck
{
    std::vector<PairTerm> terms;
};

/**
 * Reduce a request to its canonical pairing-product check. Moving an
 * equation side across the == negates its G1 points (pairing
 * bilinearity); KZG additionally folds the [z] g2 shift into the G1
 * side so the G2 bases (g2, [tau] g2) are batch-mergeable constants.
 */
PairingCheck reduceToCheck(const CurveSystem12 &sys,
                           const VerifyRequest &req);

/** Counters of one verifyBatch() call (accumulated by the engine). */
struct BatchVerifyStats
{
    size_t products = 0;     ///< pairing products evaluated (any size)
    size_t pairings = 0;     ///< terms across all products
    /// one-request nodes a bisection split reached, computed or derived
    size_t singleChecks = 0;
    size_t bisectSplits = 0; ///< batch splits forced by a failure
};

/** Single verification: evaluate the product, compare against 1. */
bool verifySingle(const CurveSystem12 &sys, const PairingCheck &check,
                  BatchVerifyStats *stats = nullptr);

/**
 * The scaling step of one RLC pass: request j's G1 points scaled by
 * r_j (drawn in request order from @p seed, as verifyBatch() draws
 * them) and summed per distinct G2 base, one term per base in order
 * of first appearance. A sum may be infinity. Exposed so benchmarks
 * can time the step on its own.
 */
std::vector<PairTerm> rlcMergedTerms(
    const CurveSystem12 &sys,
    const std::vector<const PairingCheck *> &checks, u64 seed);

/**
 * Per-request verdicts for a batch: one RLC product when all pass,
 * bisection over GT values otherwise; a batch of one is verified
 * singly. Verdict i equals verifySingle(checks[i]).
 */
std::vector<bool> verifyBatch(const CurveSystem12 &sys,
                              const std::vector<PairingCheck> &checks,
                              u64 seed,
                              BatchVerifyStats *stats = nullptr);

} // namespace finesse

#endif // FINESSE_SERVE_VERIFY_H_
