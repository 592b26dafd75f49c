/**
 * @file
 * Batched-serving throughput figure: random-linear-combination batch
 * verification (serve/verify.h) versus one-at-a-time single
 * verification, at batch size 16, across the three request kinds the
 * serving engine accepts (BLS signatures, KZG openings, Groth16-style
 * proofs).
 *
 * Why batching wins: a batch is ONE pairing product — one Miller
 * loop shared by the merged terms and one final exponentiation —
 * instead of N products. With G2-base merging the term count itself
 * collapses: N BLS checks cost N+1 terms (not 2N), N KZG openings
 * against one SRS cost 2 (not 2N), N Groth16 proofs under one vk
 * cost N+3 (not 4N).
 *
 * Identity gate: every batched verdict is differential-checked
 * against per-request single verification (clean streams AND a dirty
 * stream with corrupted requests that the bisection fallback must
 * isolate). Any mismatch — or a best mixed-stream batched speedup
 * below kSpeedupFloor, in either mode — exits non-zero.
 *
 * Scaling share: the "rlc scale ms" column times the G1 side of one
 * 16-request RLC pass (rlcMergedTerms: one endomorphism MSM per G2
 * base), "oracle ms" the same step done the way it was before, by
 * 128-bit double-and-add per term. Both are advisory (no gate).
 *
 * FINESSE_FAST=1 restricts to BN254N; the full run adds BLS12-381.
 */
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "serve/engine.h"
#include "serve/workload.h"

using namespace finesse;

namespace {

/**
 * 80 % of the BN254N mixed-stream speedup (3.303x) measured in fast
 * mode on a 1-core container.
 */
constexpr double kSpeedupFloor = 0.8 * 3.30254;

constexpr int kBatch = 16;
constexpr int kRequests = 32; // per kind, per curve

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct KindResult
{
    double singleSeconds = 0;
    double batchedSeconds = 0;
    size_t singlePairings = 0;
    size_t batchedPairings = 0;
    int mismatches = 0;

    double
    speedup() const
    {
        return batchedSeconds > 0 ? singleSeconds / batchedSeconds : 0;
    }
};

/** Clean stream: time N singles vs ceil(N/16) RLC batches. */
KindResult
runKind(const CurveSystem12 &sys, WorkloadFactory &factory,
        RequestKind kind)
{
    std::vector<PairingCheck> checks;
    for (int i = 0; i < kRequests; ++i)
        checks.push_back(
            reduceToCheck(sys, factory.make(kind, false)));

    KindResult res;

    BatchVerifyStats singleStats;
    std::vector<bool> singles;
    auto t0 = std::chrono::steady_clock::now();
    for (const PairingCheck &c : checks)
        singles.push_back(verifySingle(sys, c, &singleStats));
    res.singleSeconds = seconds(t0);
    res.singlePairings = singleStats.pairings;

    BatchVerifyStats batchStats;
    std::vector<bool> batched;
    t0 = std::chrono::steady_clock::now();
    for (size_t from = 0; from < checks.size(); from += kBatch) {
        const std::vector<PairingCheck> chunk(
            checks.begin() + from,
            checks.begin() +
                std::min(checks.size(), from + kBatch));
        const auto verdicts =
            verifyBatch(sys, chunk, 0x5e55e + from, &batchStats);
        batched.insert(batched.end(), verdicts.begin(), verdicts.end());
    }
    res.batchedSeconds = seconds(t0);
    res.batchedPairings = batchStats.pairings;

    for (int i = 0; i < kRequests; ++i) {
        // Clean stream: everything must accept, both ways.
        if (!singles[i] || !batched[i])
            res.mismatches++;
    }
    return res;
}

/** Median of @p v (which it sorts). */
double
median(std::vector<double> &v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * The RLC scaling step as it was before the endomorphism MSM, kept as
 * the timing reference: each finite term's G1 point times a uniform
 * 128-bit scalar by double-and-add (scalarMulJac), one batch
 * to-affine, one mixed addition per term onto its G2 base's sum, and
 * one batch to-affine of the sums.
 */
std::vector<AffinePt<Fp>>
rlcScaleOracle(const CurveSystem12 &sys,
               const std::vector<PairingCheck> &checks, Rng &rng)
{
    const FpCtx *fp = &sys.fpCtx();
    std::vector<JacPt<Fp>> scaled;
    std::vector<const AffinePt<Fp2> *> g2s;
    for (const PairingCheck &check : checks) {
        const BigInt r = BigInt::randomBits(rng, 128);
        for (const PairTerm &t : check.terms) {
            if (t.g1.infinity || t.g2.infinity)
                continue;
            scaled.push_back(scalarMulJac(sys.g1Curve(), t.g1, r));
            g2s.push_back(&t.g2);
        }
    }
    const std::vector<AffinePt<Fp>> affine = jacToAffineBatch(scaled, fp);
    std::vector<const AffinePt<Fp2> *> bases;
    std::vector<JacPt<Fp>> sums;
    for (size_t i = 0; i < affine.size(); ++i) {
        size_t k = 0;
        while (k < bases.size() && !bases[k]->equals(*g2s[i]))
            ++k;
        if (k == bases.size()) {
            bases.push_back(g2s[i]);
            sums.push_back(JacPt<Fp>::fromAffine(affine[i], fp));
        } else {
            sums[k] = jacAddAffine(sums[k], affine[i], fp);
        }
    }
    return jacToAffineBatch(sums, fp);
}

/** G1 scaling of one clean kBatch-request RLC pass: {new, oracle} ms. */
std::pair<double, double>
timeRlcScale(const CurveSystem12 &sys, WorkloadFactory &factory,
             RequestKind kind)
{
    std::vector<PairingCheck> checks;
    std::vector<const PairingCheck *> ptrs;
    for (int i = 0; i < kBatch; ++i)
        checks.push_back(reduceToCheck(sys, factory.make(kind, false)));
    for (const PairingCheck &c : checks)
        ptrs.push_back(&c);
    // The two alternate, so drift of a shared host hits both alike.
    Rng rng(0x5ca1e);
    std::vector<double> msm, oracle;
    for (int rep = 0; rep < 7; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        (void)rlcMergedTerms(sys, ptrs, rng.next());
        msm.push_back(seconds(t0) * 1e3);
        t0 = std::chrono::steady_clock::now();
        (void)rlcScaleOracle(sys, checks, rng);
        oracle.push_back(seconds(t0) * 1e3);
    }
    return {median(msm), median(oracle)};
}

/** Dirty stream: corrupted requests must be isolated, not mask. */
int
runDirtyIdentity(const CurveSystem12 &sys, WorkloadFactory &factory)
{
    int mismatches = 0;
    for (const RequestKind kind :
         {RequestKind::Bls, RequestKind::Kzg, RequestKind::Zk}) {
        std::vector<PairingCheck> checks;
        std::vector<bool> expected;
        for (int i = 0; i < kBatch; ++i) {
            const bool bad = i == 4 || i == 11;
            checks.push_back(
                reduceToCheck(sys, factory.make(kind, bad)));
            expected.push_back(!bad);
        }
        const auto batched = verifyBatch(sys, checks, 99);
        for (int i = 0; i < kBatch; ++i) {
            const bool single = verifySingle(sys, checks[i]);
            if (batched[i] != expected[i] || single != expected[i])
                mismatches++;
        }
    }
    return mismatches;
}

} // namespace

int
main()
{
    banner("fig_serve: batched verification throughput (batch 16)");

    std::vector<std::string> curves = {"BN254N"};
    if (!fastMode())
        curves.push_back("BLS12-381");

    TextTable table;
    table.header({"curve", "kind", "single s", "batched s", "speedup",
                  "miller single", "miller batched", "rlc scale ms",
                  "oracle ms"});

    int mismatches = 0;
    // Gate metric: the mixed-stream aggregate per curve (the serving
    // workload is all three kinds); per-kind ratios are advisory.
    double gateSpeedup = 0;
    for (const std::string &curve : curves) {
        const auto &sys = curveSystem12(curve);
        WorkloadFactory factory(sys, 0xf15); // one setup per curve
        WorkloadFactory scaleFactory(sys, 0x5ca1e); // leaves factory's
                                                    // stream as it was
        double curveSingle = 0, curveBatched = 0;
        for (const RequestKind kind :
             {RequestKind::Bls, RequestKind::Kzg, RequestKind::Zk}) {
            const KindResult res = runKind(sys, factory, kind);
            const auto [scaleMs, oracleMs] =
                timeRlcScale(sys, scaleFactory, kind);
            mismatches += res.mismatches;
            curveSingle += res.singleSeconds;
            curveBatched += res.batchedSeconds;
            table.row({curve, toString(kind), fmt(res.singleSeconds, 3),
                       fmt(res.batchedSeconds, 3),
                       fmt(res.speedup(), 2) + "x",
                       std::to_string(res.singlePairings),
                       std::to_string(res.batchedPairings),
                       fmt(scaleMs, 3), fmt(oracleMs, 3)});
        }
        const double curveSpeedup =
            curveBatched > 0 ? curveSingle / curveBatched : 0;
        gateSpeedup = std::max(gateSpeedup, curveSpeedup);
        table.row({curve, "ALL", fmt(curveSingle, 3),
                   fmt(curveBatched, 3), fmt(curveSpeedup, 2) + "x", "",
                   "", "", ""});
        mismatches += runDirtyIdentity(sys, factory);
    }
    table.print();

    // Served-throughput leg: the same requests through the actual
    // engine (queue + lanes), advisory numbers.
    {
        const auto &sys = curveSystem12(curves[0]);
        WorkloadFactory factory(sys, 0xfee);
        ServeOptions opt;
        opt.batchSize = kBatch;
        const auto t0 = std::chrono::steady_clock::now();
        ServeEngine engine(sys, opt);
        std::vector<std::future<Verdict>> futures;
        for (int i = 0; i < kRequests; ++i)
            futures.push_back(
                engine.submit(factory.make(RequestKind::Bls, false))
                    .verdict);
        for (auto &f : futures)
            if (f.get() != Verdict::Accept)
                mismatches++;
        engine.drain();
        const double served = seconds(t0);
        const ServeCounters c = engine.counters();
        std::printf("\nserved %zu requests in %.3f s (%.1f rps, "
                    "%zu batches, avg latency %.2f ms)\n",
                    c.completed, served, double(c.completed) / served,
                    c.batches, c.avgLatencyMs());
    }

    std::printf("\nmixed-stream batched speedup at batch %d: %.2fx; "
                "identity mismatches: %d\n",
                kBatch, gateSpeedup, mismatches);
    if (mismatches > 0) {
        std::fprintf(stderr, "FAIL: batched verdicts diverged\n");
        return 1;
    }
    const bool floorOk = meetsFloor("mixed-stream batched speedup",
                                    gateSpeedup, kSpeedupFloor);
    return floorOk ? 0 : 1;
}
