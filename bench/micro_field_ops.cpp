/**
 * @file
 * Microbenchmark of the fixed-limb Montgomery kernels (bigint/montkernel.h)
 * against the generic runtime-width CIOS oracle, across the catalog
 * curves' base fields: mul/sqr/add/sub/inv latency and kernel-vs-generic
 * speedup per curve (add and sub have no floor), plus two aggregate
 * speedups (mul+sqr throughput ratio) that must reach their floors in
 * either mode: the 4-limb BN254N field (kSpeedupFloor) and the 6-limb
 * BLS12-381 field (kBlsSpeedupFloor). On an ADX host both run the asm
 * kernels, so a context that falls back to the portable table fails.
 *
 * Measurement methodology: this machine's clock drifts enough between
 * runs to swamp a 2x ratio, so each kernel/generic pair is measured in
 * short adjacent interleaved batches (kernel batch, generic batch,
 * repeat) and the ratio taken over the summed times — frequency drift
 * then affects both sides equally. Ratios are stable to a few percent
 * where isolated back-to-back loops swing 20%+.
 *
 * Also a correctness gate: kernel and generic results are compared on
 * every stream at the end; any mismatch exits non-zero.
 *
 * BN254N and BLS12-381 Fp2 rows time the base field's Fp2 kernels
 * (MontCtx::fp2Mul/fp2Sqr: the ADX ones where the CPU has BMI2+ADX,
 * else the portable ones; the row names which) against the eager
 * schoolbook formulas on the generic oracle, interleaved the same way,
 * and gate on their results matching. They have no speedup floor.
 */
#include "bench_common.h"

#include "bigint/mont.h"
#include "curve/catalog.h"
#include "field/tower.h"
#include "support/rng.h"

namespace finesse {
namespace {

/**
 * 80 % of the aggregate (3.234x) measured on a 1-core container with
 * the BMI2+ADX asm kernel; a CPU without ADX lands nearer 2x and
 * fails it.
 */
constexpr double kSpeedupFloor = 0.8 * 3.23355;

/**
 * 80 % of the BLS12-381 aggregate (2.27x, median of three full-mode
 * runs on a 4-vCPU VM with BMI2+ADX) measured with the 6-limb ADX table;
 * the portable MontKernel<6> table reads about 1.3x there and fails it.
 */
constexpr double kBlsSpeedupFloor = 0.8 * 2.27;

/**
 * Time two operations in interleaved adjacent batches over four
 * independent dependency streams; returns per-op nanoseconds for each.
 */
template <typename T, typename FA, typename FB>
void
pairNs(T *s, const T &b, int batch, int reps, FA opA, FB opB, double &nsA,
       double &nsB)
{
    double ta = 0, tb = 0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < batch; ++i) {
            opA(s[0], b);
            opA(s[1], b);
            opA(s[2], b);
            opA(s[3], b);
        }
        ta += secondsSince(t0);
        t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < batch; ++i) {
            opB(s[0], b);
            opB(s[1], b);
            opB(s[2], b);
            opB(s[3], b);
        }
        tb += secondsSince(t0);
    }
    nsA = ta * 1e9 / (4.0 * batch * reps);
    nsB = tb * 1e9 / (4.0 * batch * reps);
}

struct CurveResult
{
    std::string name;
    size_t limbs = 0;
    double mulKernel = 0, mulGeneric = 0;
    double sqrKernel = 0, sqrGeneric = 0;
    double addKernel = 0, addGeneric = 0;
    double subKernel = 0, subGeneric = 0;
    double invXgcd = 0, invFermat = 0;
    bool identical = true;
};

CurveResult
benchCurve(const CurveInfo &info)
{
    CurveResult res;
    res.name = info.def.name;
    const MontCtx ctx(info.p);
    res.limbs = ctx.limbCount();

    Rng rng(77);
    Residue s[4];
    for (auto &x : s)
        x = ctx.toMont(BigInt::randomBelow(rng, info.p));
    const Residue b = ctx.toMont(BigInt::randomBelow(rng, info.p));

    const bool fast = fastMode();
    const int batch = fast ? 2000 : 20000;
    const int reps = fast ? 5 : 15;
    pairNs(
        s, b, batch, reps,
        [&](Residue &r, const Residue &o) { ctx.mul(r, r, o); },
        [&](Residue &r, const Residue &o) { ctx.mulGeneric(r, r, o); },
        res.mulKernel, res.mulGeneric);
    pairNs(
        s, b, batch, reps,
        [&](Residue &r, const Residue &) { ctx.sqr(r, r); },
        [&](Residue &r, const Residue &) { ctx.sqrGeneric(r, r); },
        res.sqrKernel, res.sqrGeneric);
    pairNs(
        s, b, batch, reps,
        [&](Residue &r, const Residue &o) { ctx.add(r, r, o); },
        [&](Residue &r, const Residue &o) { ctx.addGeneric(r, r, o); },
        res.addKernel, res.addGeneric);
    pairNs(
        s, b, batch, reps,
        [&](Residue &r, const Residue &o) { ctx.sub(r, r, o); },
        [&](Residue &r, const Residue &o) { ctx.subGeneric(r, r, o); },
        res.subKernel, res.subGeneric);
    // Inversion is microseconds-scale: smaller batches suffice, and the
    // baseline is the historical Fermat ladder.
    pairNs(
        s, b, fast ? 20 : 100, fast ? 3 : 8,
        [&](Residue &r, const Residue &) { ctx.inv(r, r); },
        [&](Residue &r, const Residue &) { ctx.invFermat(r, r); },
        res.invXgcd, res.invFermat);

    // Identity gate: after identical op sequences, kernel and generic
    // streams must agree bit-for-bit. Replay a mixed sequence.
    for (int lane = 0; lane < 4; ++lane) {
        Residue k = s[lane], g = s[lane];
        for (int i = 0; i < 64; ++i) {
            ctx.mul(k, k, b);
            ctx.mulGeneric(g, g, b);
            ctx.sqr(k, k);
            ctx.sqrGeneric(g, g);
            ctx.add(k, k, b);
            ctx.addGeneric(g, g, b);
            ctx.sub(k, k, b);
            ctx.subGeneric(g, g, b);
            ctx.neg(k, k);
            ctx.negGeneric(g, g);
        }
        res.identical = res.identical && k == g;
    }
    return res;
}

/** An Fp2 element (c0, c1) as raw Montgomery residues. */
using Fp2Raw = std::array<Residue, 2>;

struct Fp2Result
{
    i64 q = 0;
    double mulKernel = 0, mulEager = 0;
    double sqrKernel = 0, sqrEager = 0;
    bool identical = true;
};

/** The eager oracle: schoolbook Fp2 formulas on the generic ops. */
struct EagerFp2
{
    const MontCtx &ctx;
    i64 q;

    /** q * x by repeated generic add/sub. */
    Residue
    timesQ(const Residue &x) const
    {
        Residue acc{};
        for (i64 i = 0; i < (q < 0 ? -q : q); ++i) {
            if (q < 0)
                ctx.subGeneric(acc, acc, x);
            else
                ctx.addGeneric(acc, acc, x);
        }
        return acc;
    }

    void
    mul(Fp2Raw &r, const Fp2Raw &a, const Fp2Raw &b) const
    {
        Residue t00{}, t11{}, t01{}, t10{};
        ctx.mulGeneric(t00, a[0], b[0]);
        ctx.mulGeneric(t11, a[1], b[1]);
        ctx.mulGeneric(t01, a[0], b[1]);
        ctx.mulGeneric(t10, a[1], b[0]);
        ctx.addGeneric(r[0], t00, timesQ(t11));
        ctx.addGeneric(r[1], t01, t10);
    }

    void
    sqr(Fp2Raw &r, const Fp2Raw &a) const
    {
        Residue s0{}, s1{}, m{};
        ctx.sqrGeneric(s0, a[0]);
        ctx.sqrGeneric(s1, a[1]);
        ctx.mulGeneric(m, a[0], a[1]);
        ctx.addGeneric(r[0], s0, timesQ(s1));
        ctx.addGeneric(r[1], m, m);
    }
};

/** One field's Fp2 kernels against the eager oracle. */
Fp2Result
benchFp2(const CurveInfo &info)
{
    Fp2Result res;
    i64 xi0, xi1;
    searchTowerNonResidues(info.p, res.q, xi0, xi1);
    const MontCtx ctx(info.p);
    const EagerFp2 eager{ctx, res.q};
    const i64 q = res.q;

    Rng rng(79);
    auto randElem = [&] {
        return Fp2Raw{ctx.toMont(BigInt::randomBelow(rng, info.p)),
                      ctx.toMont(BigInt::randomBelow(rng, info.p))};
    };
    Fp2Raw s[4];
    for (auto &x : s)
        x = randElem();
    const Fp2Raw b = randElem();

    const bool fast = fastMode();
    const int batch = fast ? 500 : 5000;
    const int reps = fast ? 5 : 15;
    pairNs(
        s, b, batch, reps,
        [&](Fp2Raw &r, const Fp2Raw &o) {
            ctx.fp2Mul(r[0], r[1], r[0], r[1], o[0], o[1], q);
        },
        [&](Fp2Raw &r, const Fp2Raw &o) { eager.mul(r, r, o); },
        res.mulKernel, res.mulEager);
    pairNs(
        s, b, batch, reps,
        [&](Fp2Raw &r, const Fp2Raw &) {
            ctx.fp2Sqr(r[0], r[1], r[0], r[1], q);
        },
        [&](Fp2Raw &r, const Fp2Raw &) { eager.sqr(r, r); },
        res.sqrKernel, res.sqrEager);

    // Identity gate: replay mul and sqr on both sides from each stream.
    for (const Fp2Raw &start : s) {
        Fp2Raw k = start, g = start;
        for (int i = 0; i < 64; ++i) {
            ctx.fp2Mul(k[0], k[1], k[0], k[1], b[0], b[1], q);
            eager.mul(g, g, b);
            ctx.fp2Sqr(k[0], k[1], k[0], k[1], q);
            eager.sqr(g, g);
        }
        res.identical = res.identical && k == g;
    }
    return res;
}

} // namespace
} // namespace finesse

int
main()
{
    using namespace finesse;

    banner("micro_field_ops: fixed-limb Montgomery kernels vs generic CIOS");

    std::vector<CurveResult> results;
    for (const CurveDef &def : curveCatalog()) {
        if (fastMode() && def.name != "BN254N" && def.name != "BLS12-381")
            continue;
        results.push_back(benchCurve(deriveCurveInfo(def)));
    }

    std::printf("%-11s %5s  %8s %8s %7s  %8s %8s %7s  %7s %7s %6s  "
                "%7s %7s %6s  %9s %9s %7s\n",
                "curve", "limbs", "mul", "gen", "x", "sqr", "gen", "x",
                "add", "gen", "x", "sub", "gen", "x", "inv", "fermat", "x");
    bool allIdentical = true;
    double aggregate = 0, blsAggregate = 0;
    for (const CurveResult &r : results) {
        std::printf("%-11s %5zu  %6.1fns %6.1fns %6.2fx  %6.1fns %6.1fns "
                    "%6.2fx  %5.1fns %5.1fns %5.2fx  %5.1fns %5.1fns %5.2fx  "
                    "%7.2fus %7.2fus %6.2fx\n",
                    r.name.c_str(), r.limbs, r.mulKernel, r.mulGeneric,
                    r.mulGeneric / r.mulKernel, r.sqrKernel, r.sqrGeneric,
                    r.sqrGeneric / r.sqrKernel, r.addKernel, r.addGeneric,
                    r.addGeneric / r.addKernel, r.subKernel, r.subGeneric,
                    r.subGeneric / r.subKernel, r.invXgcd / 1e3,
                    r.invFermat / 1e3, r.invFermat / r.invXgcd);
        allIdentical = allIdentical && r.identical;
        const double speedup = (r.mulGeneric + r.sqrGeneric) /
                               (r.mulKernel + r.sqrKernel);
        if (r.name == "BN254N")
            aggregate = speedup;
        else if (r.name == "BLS12-381")
            blsAggregate = speedup;
    }
    // Fp2: the kernels against the eager oracle (no floor). Both fields
    // take the ADX kernels where the CPU has them (BN254N inline,
    // BLS12-381 through its table), the portable ones elsewhere.
    std::printf("\n");
#if FINESSE_HAVE_X86_ADX
    const char *fp2Kernel = cpuHasAdx() ? "adx" : "portable";
#else
    const char *fp2Kernel = "portable";
#endif
    for (const char *name : {"BN254N", "BLS12-381"}) {
        const Fp2Result fp2 = benchFp2(deriveCurveInfo(findCurve(name)));
        std::printf("%-9s Fp2 %-8s (u^2 = %lld)  mul %6.1fns eager %6.1fns "
                    "%5.2fx  sqr %6.1fns eager %6.1fns %5.2fx%s\n",
                    name, fp2Kernel, static_cast<long long>(fp2.q),
                    fp2.mulKernel,
                    fp2.mulEager, fp2.mulEager / fp2.mulKernel,
                    fp2.sqrKernel, fp2.sqrEager, fp2.sqrEager / fp2.sqrKernel,
                    fp2.identical ? "" : "  [IDENTITY MISMATCH]");
        allIdentical = allIdentical && fp2.identical;
    }

    // The gated aggregates: mul+sqr throughput ratio on the 4-limb BN254N
    // and 6-limb BLS12-381 base fields (ADX asm where the CPU has it).
    std::printf("\nBN254N mul+sqr throughput speedup: %.2fx, BLS12-381: "
                "%.2fx%s\n",
                aggregate, blsAggregate,
                allIdentical ? "" : "  [IDENTITY MISMATCH]");
    const bool floorOk =
        meetsFloor("BN254N mul+sqr speedup", aggregate, kSpeedupFloor);
    const bool blsFloorOk = meetsFloor("BLS12-381 mul+sqr speedup",
                                       blsAggregate, kBlsSpeedupFloor);
    return allIdentical && floorOk && blsFloorOk ? 0 : 1;
}
