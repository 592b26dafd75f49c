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
 * shared by all terms, one final exponentiation — PairingEngine::
 * pairProduct). Batch verification draws an independent 128-bit
 * scalar r_j per request and checks
 *
 *     prod_j prod_i e([r_j] P_{j,i}, Q_{j,i}) == 1,
 *
 * which holds for all-valid batches and fails with probability
 * ~2^-128 when any request is invalid (the r_j prevent an adversary
 * — or an unlucky pair of bad requests — from cancelling across
 * requests). Before pairing, terms whose G2 points are equal are
 * merged by summing their scaled G1 points: a BLS batch collapses all
 * signature terms onto the shared g2 generator (N+1 terms for N
 * requests), a KZG batch collapses onto {g2, [tau]g2} (2 terms total),
 * a Groth16 batch with a shared verification key onto N+3. One final exponentiation covers the whole batch either way.
 *
 * When a batch fails, verifyBatch() bisects: each half is re-checked
 * as its own RLC batch, recursing down to single verifications, so
 * individual bad requests are pinpointed while all-valid subtrees
 * cost one product each. Verdicts are deterministic and identical to
 * per-request single verification (differential-tested in
 * tests/test_serve.cpp).
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
    size_t singleChecks = 0; ///< per-request fallback verifications
    size_t bisectSplits = 0; ///< batch splits forced by a failure
};

/** Single verification: evaluate the product, compare against 1. */
bool verifySingle(const CurveSystem12 &sys, const PairingCheck &check,
                  BatchVerifyStats *stats = nullptr);

/**
 * One RLC pass over @p checks: true iff (whp) every check holds.
 * @p seed determines the random scalars; any seed yields correct
 * verdicts, a fixed seed yields a reproducible pairing schedule.
 */
bool verifyBatchRLC(const CurveSystem12 &sys,
                    const std::vector<const PairingCheck *> &checks,
                    u64 seed, BatchVerifyStats *stats = nullptr);

/**
 * Per-request verdicts for a batch: one RLC product when all pass,
 * bisection + single-verification fallback otherwise. Verdict i is
 * exactly verifySingle(checks[i]).
 */
std::vector<bool> verifyBatch(const CurveSystem12 &sys,
                              const std::vector<PairingCheck> &checks,
                              u64 seed,
                              BatchVerifyStats *stats = nullptr);

} // namespace finesse

#endif // FINESSE_SERVE_VERIFY_H_
