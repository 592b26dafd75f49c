/**
 * @file
 * Serving legs of a workload and the serve-side replay.
 *
 * Closed loop: kWindow requests stay outstanding; each verdict is
 * replaced by the next pool request, so throughput is the engine's
 * saturated rate. Open loop: one generator thread submits at the
 * workload's fixed rate and every request is timed from when it was
 * due, so a stall in the engine (or in the generator) shows as
 * latency. Verdicts are checked against the pool's expectation.
 */
#include <atomic>
#include <cmath>
#include <deque>
#include <thread>

#include "bench.h"
#include "compiler/backendprep.h"
#include "core/framework.h"
#include "pairing/cache.h"
#include "serve/engine.h"

using namespace finesse;

namespace perfbench {

namespace {

/** Pre-generated requests: distinct, so no batch holds a duplicate. */
struct Pool
{
    std::vector<VerifyRequest> requests;
    std::vector<bool> accept; ///< expected verdict per request
};

/**
 * Corrupted requests sit at seeded positions, one per equal stripe of
 * the pool and at least kBatch apart (also across the wrap), so every
 * pass over the pool pays the same number of bisections however the
 * engine happens to align its batches.
 */
Pool
makePool(const CurveSystem12 &sys, const WorkloadSpec &spec, u64 seed)
{
    std::vector<bool> bad(kPool, false);
    Rng rng(seed ^ 0xbadc0ffeeull);
    if (spec.corrupted > 0) {
        const size_t stripe = kPool / size_t(spec.corrupted);
        for (int k = 0; k < spec.corrupted; ++k)
            bad[k * stripe + rng.below(stripe - kBatch + 1)] = true;
    }
    Pool pool;
    WorkloadFactory factory(sys, seed);
    for (size_t i = 0; i < kPool; ++i) {
        const RequestKind kind = spec.pattern[i % spec.pattern.size()];
        pool.requests.push_back(factory.make(kind, bad[i]));
        pool.accept.push_back(!bad[i]);
    }
    return pool;
}

/** Outcome tally shared by both legs. */
struct Tally
{
    size_t attempted = 0;
    size_t bounced = 0;
    size_t threw = 0;
    size_t wrong = 0;
    double submitMs = 0;
    size_t submits = 0;

    /** Timed submit; returns false when the engine bounced it. */
    bool
    submit(ServeEngine &engine, const VerifyRequest &req,
           std::future<Verdict> &out, int parent)
    {
        Span span("serve.submit", parent);
        attempted++;
        const auto t0 = Clock::now();
        Admission a = engine.submit(req);
        submitMs += msSince(t0);
        submits++;
        if (!a.admitted) {
            bounced++;
            return false;
        }
        out = std::move(a.verdict);
        return true;
    }

    void
    collect(std::future<Verdict> &f, bool accept)
    {
        try {
            const Verdict v = f.get();
            if ((v == Verdict::Accept) != accept)
                wrong++;
        } catch (...) {
            threw++;
        }
    }
};

/** Adds the counter growth from @p a to @p b into @p sum. */
void
accumulate(ServeCounters &sum, const ServeCounters &a, const ServeCounters &b)
{
    sum.completed += b.completed - a.completed;
    sum.batches += b.batches - a.batches;
    sum.products += b.products - a.products;
    sum.pairings += b.pairings - a.pairings;
    sum.singleFallbacks += b.singleFallbacks - a.singleFallbacks;
    sum.totalLatencyMs += b.totalLatencyMs - a.totalLatencyMs;
    sum.totalBatchMs += b.totalBatchMs - a.totalBatchMs;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Closed loop for at least @p seconds after a warm-up of one full
 * window, ending on a whole pass over the pool (kPool verdicts). Adds
 * the measured verdicts, time and engine counter growth to @p verified,
 * @p measuredMs and @p measured.
 */
void
closedLeg(ServeEngine &engine, const Pool &pool, double seconds,
          Tally &tally, size_t &verified, double &measuredMs,
          ServeCounters &measured)
{
    Span leg("serve.closed_leg");
    struct Outstanding
    {
        std::future<Verdict> verdict;
        size_t idx;
    };
    std::deque<Outstanding> window;
    size_t next = 0;
    auto refill = [&] {
        const size_t idx = next++ % kPool;
        Outstanding o{{}, idx};
        if (tally.submit(engine, pool.requests[idx], o.verdict, leg.id()))
            window.push_back(std::move(o));
    };
    for (int i = 0; i < kWindow; ++i)
        refill();

    size_t received = 0;
    Clock::time_point t0, now;
    ServeCounters c0;
    while (!window.empty()) {
        Outstanding o = std::move(window.front());
        window.pop_front();
        tally.collect(o.verdict, pool.accept[o.idx]);
        received++;
        now = Clock::now();
        if (received == static_cast<size_t>(kWindow)) {
            t0 = now;
            c0 = engine.counters();
        } else if (received > static_cast<size_t>(kWindow) &&
                   (received - kWindow) % kPool == 0 &&
                   msBetween(t0, now) >= seconds * 1e3) {
            break;
        }
        refill();
    }
    if (received > static_cast<size_t>(kWindow)) {
        verified += received - kWindow;
        measuredMs += msBetween(t0, now);
        accumulate(measured, c0, engine.counters());
    }
    while (!window.empty()) {
        tally.collect(window.front().verdict, pool.accept[window.front().idx]);
        window.pop_front();
    }
}

struct OpenResult
{
    std::vector<double> latencyMs; ///< due -> verdict ready
    std::vector<double> lagMs;     ///< due -> actually submitted
};

/**
 * Open loop: @p n requests at @p rate per second from one generator
 * thread while this thread collects verdicts as they become ready.
 * Appends to @p out.
 */
void
openLeg(ServeEngine &engine, const Pool &pool, double rate, size_t n,
        Tally &tally, OpenResult &out)
{
    Span leg("serve.open_leg");
    struct Slot
    {
        std::future<Verdict> verdict;
        Clock::time_point due;
        bool admitted = false;
    };
    std::vector<Slot> slots(n);
    std::atomic<size_t> published{0};
    std::vector<double> lagMs(n);

    const auto start = Clock::now() + std::chrono::milliseconds(5);
    std::thread generator([&] {
        for (size_t i = 0; i < n; ++i) {
            Slot &s = slots[i];
            s.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    double(i) / rate));
            std::this_thread::sleep_until(s.due);
            lagMs[i] = msSince(s.due);
            try {
                s.admitted = tally.submit(engine, pool.requests[i % kPool],
                                          s.verdict, leg.id());
            } catch (...) {
                tally.threw++;
            }
            published.store(i + 1, std::memory_order_release);
            published.notify_one();
        }
    });

    // Collector: wake when the oldest verdict is ready or every 200 us,
    // then stamp every ready verdict, so a batch that finishes out of
    // order on the other lane is seen within that bound.
    std::vector<size_t> pending;
    size_t seen = 0, done = 0;
    Tally collected;
    while (done < n) {
        const size_t pub = published.load(std::memory_order_acquire);
        for (; seen < pub; ++seen) {
            if (slots[seen].admitted)
                pending.push_back(seen);
            else
                done++;
        }
        if (pending.empty()) {
            if (done < n)
                published.wait(pub, std::memory_order_acquire);
            continue;
        }
        slots[pending.front()].verdict.wait_for(
            std::chrono::microseconds(200));
        const auto now = Clock::now();
        size_t keep = 0;
        for (const size_t i : pending) {
            Slot &s = slots[i];
            if (s.verdict.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                pending[keep++] = i;
                continue;
            }
            out.latencyMs.push_back(msBetween(s.due, now));
            collected.collect(s.verdict, pool.accept[i % kPool]);
            done++;
        }
        pending.resize(keep);
    }
    generator.join();
    tally.threw += collected.threw;
    tally.wrong += collected.wrong;
    out.lagMs.insert(out.lagMs.end(), lagMs.begin(), lagMs.end());
}

/**
 * One batch of the workload's kinds with a corrupted request at every
 * kProbeStride-th position, generated and checked outside the timed
 * traffic (whose mix may hold no corrupted request). The engine,
 * verifyBatch and verifySingle must each reject exactly the corrupted
 * ones, so a verifier that accepts everything fails every workload.
 */
void
checkProbe(ServeEngine &engine, const CurveSystem12 &sys,
           const WorkloadSpec &spec, u64 seed, Report &rep)
{
    WorkloadFactory factory(sys, seed ^ 0x9b0beull);
    std::vector<VerifyRequest> reqs;
    std::vector<PairingCheck> checks;
    std::vector<bool> accept;
    for (int i = 0; i < kBatch; ++i) {
        const bool bad = i % kProbeStride == 1;
        reqs.push_back(
            factory.make(spec.pattern[i % spec.pattern.size()], bad));
        checks.push_back(reduceToCheck(sys, reqs.back()));
        accept.push_back(!bad);
    }
    std::vector<std::future<Verdict>> served;
    for (const VerifyRequest &req : reqs)
        served.push_back(engine.submit(req).verdict);
    const std::vector<bool> batched = verifyBatch(sys, checks, seed);
    for (int i = 0; i < kBatch; ++i) {
        bool engineOk = false;
        try {
            engineOk = served[i].valid() &&
                       (served[i].get() == Verdict::Accept) == accept[i];
        } catch (...) {
        }
        const std::string what = "probe: " +
                                 std::string(accept[i] ? "valid" : "corrupted") +
                                 " request " + std::to_string(i) +
                                 " misjudged by ";
        if (!engineOk)
            rep.fail(what + "the engine");
        if (batched[i] != accept[i])
            rep.fail(what + "verifyBatch");
        if (verifySingle(sys, checks[i]) != accept[i])
            rep.fail(what + "verifySingle");
    }
}

/** Requests of every kind for the per-kind reduce timings. */
std::vector<std::pair<RequestKind, VerifyRequest>>
kindSamples(const CurveSystem12 &sys, u64 seed)
{
    WorkloadFactory factory(sys, seed ^ 0x6b1d5ull);
    std::vector<std::pair<RequestKind, VerifyRequest>> out;
    for (const RequestKind kind :
         {RequestKind::Bls, RequestKind::Kzg, RequestKind::Zk})
        for (int i = 0; i < 4; ++i)
            out.emplace_back(kind, factory.make(kind, false));
    return out;
}

/** Keeps a timed chain's result observable. */
std::atomic<size_t> g_sink{0};

template <typename T>
void
keep(const T &x)
{
    std::vector<BigInt> coeffs;
    x.toFpCoeffs(coeffs);
    g_sink += static_cast<size_t>(coeffs[0].bitLength());
}

/** Fp mul/add/inv counts of a compiled trace part. */
struct OpCounts
{
    size_t mul = 0, lin = 0, inv = 0;
};

OpCounts
traceOps(const std::string &curve, TracePart part)
{
    Span span("compiler.traceShared");
    CompileOptions opt;
    opt.part = part;
    OptStats stats;
    const auto module = Framework(curve).traceShared(opt, stats);
    const TracePrep prep = buildTracePrep(*module);
    OpCounts c{prep.mulInstrs, prep.linInstrs, 0};
    for (const u8 u : prep.unit)
        c.inv += u == static_cast<u8>(UnitClass::Inv);
    return c;
}

/**
 * Layer-by-layer replay on the serving curve: field rungs, curve
 * scalar multiplications, pairing steps, then the serve functions,
 * each timed on its own. Fills field.*, curve.*, pairing.* and the
 * replay-only serve.* metrics.
 */
void
replayLayers(const CurveSystem12 &sys,
             const std::vector<PairingCheck> &checks, size_t cleanBatch,
             double mergedTerms, u64 seed, Report &rep)
{
    Span root("bench.replay");
    auto &L = rep.layer;
    const FpCtx *fp = &sys.fpCtx();
    const auto &terms = checks[cleanBatch * kBatch].terms;
    const AffinePt<Fp> &P = terms[1].g1;
    const AffinePt<Fp2> &Q = terms[1].g2;

    // field: dependent chains, so each op waits on the previous one.
    {
        Span span("field.ops");
        Fp a = P.x, b = P.y;
        const Fp c = P.y;
        L["field.fp_mul_ns"] =
            medianCallNs(7, 20000, [&] { a = a.mul(c); });
        L["field.fp_sqr_ns"] = medianCallNs(7, 20000, [&] { a = a.sqr(); });
        L["field.fp_add_ns"] =
            medianCallNs(7, 20000, [&] { b = b.add(c); });
        L["field.fp_inv_ns"] =
            medianCallNs(7, 200, [&] { a = a.add(c).inv(); });
        Fp2 x = Q.x;
        const Fp2 y = Q.y;
        L["field.fp2_mul_fpmul"] =
            medianCallNs(7, 5000, [&] { x = x.mul(y); }) /
            L["field.fp_mul_ns"];
        Fp12 f = sys.engine().miller(P.x, P.y, Q.x, Q.y);
        const Fp12 g = f;
        L["field.fp12_mul_fpmul"] =
            medianCallNs(7, 300, [&] { f = f.mul(g); }) /
            L["field.fp_mul_ns"];
        L["field.fp12_sqr_fpmul"] =
            medianCallNs(7, 300, [&] { f = f.sqr(); }) /
            L["field.fp_mul_ns"];
        keep(a);
        keep(b);
        keep(x);
        keep(f);
    }
    const double fpMulNs = L["field.fp_mul_ns"];

    // curve: the RLC scalar mul, KZG's full-width one, batch to-affine.
    {
        Span span("curve.ops");
        Rng rng(seed ^ 0xc0fefeull);
        const BigInt r128 = BigInt::randomBits(rng, 128);
        const BigInt full = BigInt::randomBelow(rng, sys.info().r);
        L["curve.g1_mul_rlc_us"] =
            medianCallNs(5, 20, [&] {
                (void)scalarMulJac(sys.g1Curve(), P, r128);
            }) / 1e3;
        L["curve.g1_mul_full_us"] =
            medianCallNs(5, 10, [&] {
                (void)scalarMul(sys.g1Curve(), P, full);
            }) / 1e3;
        std::vector<JacPt<Fp>> jac;
        for (int i = 0; i < kBatch; ++i)
            for (const PairTerm &t : checks[cleanBatch * kBatch + i].terms)
                jac.push_back(JacPt<Fp>::fromAffine(t.g1, fp));
        L["curve.g1_to_affine_batch_us"] =
            medianCallNs(5, 20, [&] { (void)jacToAffineBatch(jac, fp); }) /
            1e3;
    }

    // pairing: measured steps against the compiled-trace prediction.
    {
        Span span("pairing.ops");
        Fp12 f;
        const double millerMs =
            medianCallNs(5, 3, [&] {
                f = sys.engine().miller(P.x, P.y, Q.x, Q.y);
            }) / 1e6;
        const double finalExpMs =
            medianCallNs(5, 3, [&] { (void)sys.engine().finalExp(f); }) /
            1e6;
        const double pairMs =
            medianCallNs(5, 2, [&] { (void)sys.pair(P, Q); }) / 1e6;
        std::vector<std::pair<AffinePt<Fp>, AffinePt<Fp2>>> product;
        const size_t k = std::max<size_t>(1, std::lround(mergedTerms));
        for (size_t i = 0; product.size() < k; ++i)
            for (const PairTerm &t : checks[i].terms)
                if (product.size() < k)
                    product.emplace_back(t.g1, t.g2);
        const double productMs =
            medianCallNs(3, 1, [&] { (void)sys.pairProduct(product); }) /
            1e6;
        L["pairing.miller_ms"] = millerMs;
        L["pairing.final_exp_ms"] = finalExpMs;
        L["pairing.pair_ms"] = pairMs;
        L["pairing.product_ms"] = productMs;
        L["pairing.product_terms"] = double(k);
        for (const char *n : {"miller", "final_exp", "pair", "product"})
            L[std::string("pairing.") + n + "_fpmul"] =
                L[std::string("pairing.") + n + "_ms"] * 1e6 / fpMulNs;
        const auto predictMs = [&](const OpCounts &c) {
            return (double(c.mul) * fpMulNs +
                    double(c.lin) * L["field.fp_add_ns"] +
                    double(c.inv) * L["field.fp_inv_ns"]) /
                   1e6;
        };
        const std::string curve = sys.info().def.name;
        L["pairing.miller_overhead"] =
            millerMs / predictMs(traceOps(curve, TracePart::MillerOnly));
        L["pairing.final_exp_overhead"] =
            finalExpMs /
            predictMs(traceOps(curve, TracePart::FinalExpOnly));
    }

    // serve: reduce per kind, then one full batch vs its singles.
    {
        Span span("serve.ops");
        std::map<std::string, std::vector<double>> reduceUs;
        for (const auto &[kind, req] : kindSamples(sys, seed))
            reduceUs[std::string("serve.reduce_") + toString(kind) + "_us"]
                .push_back(medianCallNs(3, 2, [&] {
                    (void)reduceToCheck(sys, req);
                }) / 1e3);
        for (const auto &[key, us] : reduceUs)
            L[key] = median(us);
        const std::vector<PairingCheck> batch(
            checks.begin() + cleanBatch * kBatch,
            checks.begin() + (cleanBatch + 1) * kBatch);
        L["serve.verify_batch_ms"] =
            medianCallNs(3, 1, [&] { (void)verifyBatch(sys, batch, seed); }) /
            1e6;
        std::vector<double> singles;
        for (const PairingCheck &c : batch) {
            const auto t0 = Clock::now();
            (void)verifySingle(sys, c);
            singles.push_back(msSince(t0));
        }
        L["serve.verify_single_ms"] = median(singles);
    }
}

} // namespace

ServeOptions
engineOptions()
{
    ServeOptions opt;
    opt.batchSize = kBatch;
    opt.jobs = kLanes;
    return opt;
}

struct ServePhase::State
{
    explicit State(const RunConfig &c)
        : cfg(c), sys(curveSystem12(c.spec->curve)),
          pool(makePool(sys, *c.spec, c.seed)), engine(sys, engineOptions())
    {}

    const RunConfig &cfg;
    const CurveSystem12 &sys;
    const Pool pool;
    ServeEngine engine;
    Tally tally;
    size_t closedVerified = 0; ///< closed loop, measured part
    double closedMs = 0;
    OpenResult open;
    ServeCounters closed, opened; ///< measured engine counter growth
};

ServePhase::ServePhase(const RunConfig &cfg)
    : st_(std::make_unique<State>(cfg))
{}

ServePhase::~ServePhase() = default;

void
ServePhase::step(double closedS, size_t openRequests)
{
    State &st = *st_;
    Span span("bench.serve_step");
    closedLeg(st.engine, st.pool, closedS, st.tally, st.closedVerified,
              st.closedMs, st.closed);
    st.engine.drain();
    const ServeCounters before = st.engine.counters();
    openLeg(st.engine, st.pool, st.cfg.spec->openRate, openRequests,
            st.tally, st.open);
    st.engine.drain();
    accumulate(st.opened, before, st.engine.counters());
}

void
ServePhase::finish(Report &rep)
{
    State &st = *st_;
    const CurveSystem12 &sys = st.sys;
    const Pool &pool = st.pool;
    const u64 seed = st.cfg.seed;
    rep.attempted += st.tally.attempted;
    rep.failed += st.tally.bounced + st.tally.threw;
    if (st.tally.wrong > 0)
        rep.fail("serve: " + std::to_string(st.tally.wrong) +
                 " verdicts differ from the generator's expectation");

    const std::vector<double> &lat = st.open.latencyMs;
    rep.e2e["verify_rps"] =
        ratio(double(st.closedVerified), st.closedMs / 1e3);
    rep.e2e["latency_p50_ms"] = quantile(lat, 0.50);
    rep.e2e["latency_p99_ms"] = quantile(lat, 0.99);

    auto &L = rep.layer;
    const ServeCounters &open = st.opened;
    L["serve.latency_samples"] = double(lat.size());
    L["serve.gen_lag_ms"] = quantile(st.open.lagMs, 0.99);
    L["serve.submit_us"] =
        ratio(st.tally.submitMs * 1e3, double(st.tally.submits));
    L["serve.batch_ms"] = ratio(open.totalBatchMs, double(open.batches));
    L["serve.queue_wait_ms"] =
        ratio(open.totalLatencyMs, double(open.completed)) -
        L["serve.batch_ms"];
    L["serve.batch_fill"] =
        ratio(double(open.completed), double(open.batches) * kBatch);
    L["serve.fallback_frac"] = ratio(double(st.closed.singleFallbacks),
                                     double(st.closed.completed));
    L["serve.bounced"] = double(st.tally.bounced);

    // Aligned replay of the whole pool: every verdict checked, and the
    // Miller loops per request of full batches, which repeat exactly.
    std::vector<PairingCheck> checks;
    for (const VerifyRequest &req : pool.requests)
        checks.push_back(reduceToCheck(sys, req));
    BatchVerifyStats stats;
    size_t cleanBatch = 0;
    bool haveClean = false;
    for (size_t b = 0; b < kPool / kBatch; ++b) {
        const std::vector<PairingCheck> batch(
            checks.begin() + b * kBatch, checks.begin() + (b + 1) * kBatch);
        const std::vector<bool> verdicts =
            verifyBatch(sys, batch, seed + b, &stats);
        bool clean = true;
        for (int i = 0; i < kBatch; ++i) {
            clean = clean && pool.accept[b * kBatch + i];
            if (verdicts[i] != pool.accept[b * kBatch + i])
                rep.fail("serve replay: batched verdict of request " +
                         std::to_string(b * kBatch + i) + " is wrong");
        }
        if (clean && !haveClean)
            cleanBatch = b, haveClean = true;
    }
    L["serve.miller_per_req"] = double(stats.pairings) / kPool;
    rep.det["serve.miller_per_req"] = std::to_string(stats.pairings) + "/" +
                                      std::to_string(kPool);

    checkProbe(st.engine, sys, *st.cfg.spec, seed, rep);

    if (st.cfg.trace && haveClean)
        replayLayers(sys, checks, cleanBatch,
                     ratio(double(st.closed.pairings),
                           double(st.closed.products)),
                     seed, rep);
}

} // namespace perfbench
