/**
 * @file
 * End-to-end sweep: for every catalog curve, compile the full pairing
 * and cross-validate the compiled program against the native library
 * (SSA level and register-file level). This is the strongest
 * whole-framework guarantee in the suite. Each curve's deterministic
 * compile outputs, and its schedule, register assignment and cycle
 * counts on every Fig. 10 model and its Fig. 8 delay, are also pinned
 * by tests/golden/catalog.txt, and so are its native pairing value and
 * the facts its CurveSystem constructor loads. FactsMatchDerivation
 * holds each catalog entry's pinned facts equal to deriveCurveFacts.
 */
#include <gtest/gtest.h>

#include "core/framework.h"
#include "dse/explorer.h"
#include "golden.h"
#include "pairing/cache.h"
#include "support/diskcache.h"

namespace finesse {
namespace {

/** FNV-1a-64, fed one little-endian integer at a time. */
struct Fnv1a
{
    u64 h = 0xcbf29ce484222325ull;

    void
    add(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * One golden line for a compiled point: FNV-1a over issueCycle, the
 * bundles (size, then instIdx), regOf and maxRegsPerBank, followed by
 * the cycle simulator's counters.
 */
std::string
scheduleFingerprint(const CompileResult &r, const CycleStats &sim)
{
    Fnv1a f;
    for (i64 c : r.prog.schedule.issueCycle)
        f.add(static_cast<u64>(c));
    for (const Bundle &b : r.prog.schedule.bundles) {
        f.add(b.instIdx.size());
        for (i32 idx : b.instIdx)
            f.add(static_cast<u64>(idx));
    }
    for (i32 reg : r.prog.regs.regOf)
        f.add(static_cast<u64>(reg));
    for (i32 n : r.prog.regs.maxRegsPerBank)
        f.add(static_cast<u64>(n));
    return goldenFormat("fnv=%016llx cycles=%lld issue_cycles=%lld "
                        "bubbles=%lld max_fifo_defer=%lld",
                        static_cast<unsigned long long>(f.h),
                        static_cast<long long>(sim.totalCycles),
                        static_cast<long long>(sim.issueCycles),
                        static_cast<long long>(sim.bubbles),
                        static_cast<long long>(sim.maxFifoDefer));
}

class AllCurvesEndToEnd : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllCurvesEndToEnd, CompileSimulateValidate)
{
    Framework fw(GetParam());
    const CompileResult res = fw.compile(CompileOptions{});

    // Structure.
    EXPECT_GT(res.instrs(), 10000u);
    EXPECT_EQ(res.prog.module.outputs.size(),
              static_cast<size_t>(fw.info().k));
    EXPECT_EQ(res.prog.module.countOp(Op::Inv), 1u);

    // Timing sanity.
    const CycleStats sim = fw.simulate(res);
    EXPECT_GT(sim.ipc(), 0.85);

    // Golden: front end, backend, cycle model and area, bit-exact.
    size_t regs = 0;
    for (i32 w : res.prog.regs.maxRegsPerBank)
        regs += static_cast<size_t>(w);
    expectGolden(
        std::string("allcurves.") + GetParam(),
        goldenFormat("instrs_before=%zu instrs_after=%zu bundles=%zu "
                     "cycles=%lld bubbles=%lld regs=%zu imem_bits=%zu "
                     "mm2=%.17g",
                     res.opt.instrsBefore, res.instrs(),
                     res.binary.numBundles,
                     static_cast<long long>(sim.totalCycles),
                     static_cast<long long>(sim.bubbles), regs,
                     res.binary.imemBits(), fw.area(res).totalArea));

    // Functional correctness vs the native oracle.
    const ValidationReport rep = fw.validate(res, 1);
    EXPECT_TRUE(rep.allPassed()) << GetParam();

    // Golden: Fig. 8's delay column, the default-options point that
    // bench/fig8_scalability evaluates.
    const DsePoint fig8 =
        Explorer(GetParam()).evaluate(CompileOptions{}, 1, GetParam());
    expectGolden(std::string("fig8.") + GetParam(),
                 goldenFormat("delay_us=%.17g", fig8.latencyUs));

    // Golden: schedule, register assignment and cycle-sim output on
    // every Fig. 10 model, plus program order on the paper model.
    // The trace cache is warm, so each point costs one backend run.
    const std::vector<PipelineModel> models = fig10HardwareModels();
    for (size_t i = 0; i <= models.size(); ++i) {
        CompileOptions opt;
        if (i < models.size())
            opt.hw = models[i];
        else
            opt.listSchedule = false;
        const CompileResult r = fw.compile(opt);
        expectGolden(std::string("sched.") + GetParam() +
                         (i < models.size() ? ".m" + std::to_string(i)
                                            : std::string(".init")),
                     scheduleFingerprint(r, fw.simulate(r)));
    }
}

/** FNV-1a over Fp coefficients as `0x...` strings joined by ','. */
unsigned long long
coeffFnv(const std::vector<BigInt> &coeffs)
{
    std::string hex;
    for (const BigInt &c : coeffs) {
        if (!hex.empty())
            hex += ',';
        hex += c.toHexString();
    }
    return DiskCache::fnv1a(hex.data(), hex.size());
}

/**
 * coeffFnv of e(g1Gen, g2Gen). The bilinearity tests compare pairings
 * with each other, so a field op that is wrong but self-consistent
 * passes them; this line pins the value itself.
 */
template <typename System>
std::string
nativePairingFingerprint(const System &sys)
{
    std::vector<BigInt> coeffs;
    sys.pair(sys.g1Gen(), sys.g2Gen()).toFpCoeffs(coeffs);
    return goldenFormat("pair_fnv=%016llx", coeffFnv(coeffs));
}

/**
 * What the CurveSystem constructor loads: b, the twist type, the
 * tower non-residues q and xi = xi0 + xi1 u, and coeffFnv over g1Gen
 * (x, y), g2Gen (x, y) and beta. A set-up change shows here by name,
 * not only through native.<curve>.
 */
template <typename System>
std::string
setupFingerprint(const System &sys)
{
    std::vector<BigInt> coeffs;
    sys.g1Gen().x.toFpCoeffs(coeffs);
    sys.g1Gen().y.toFpCoeffs(coeffs);
    sys.g2Gen().x.toFpCoeffs(coeffs);
    sys.g2Gen().y.toFpCoeffs(coeffs);
    sys.g1Beta().toFpCoeffs(coeffs);
    const TowerParams &prm = sys.towerParams();
    return goldenFormat(
        "b=%lld twist=%s q=%lld xi=%lld,%lld gen_fnv=%016llx",
        static_cast<long long>(sys.b()),
        sys.twistType() == TwistType::D ? "D" : "M",
        static_cast<long long>(prm.q), static_cast<long long>(prm.xi0),
        static_cast<long long>(prm.xi1), coeffFnv(coeffs));
}

TEST_P(AllCurvesEndToEnd, NativePairingPinned)
{
    const std::string name = GetParam();
    expectGolden("native." + name,
                 findCurve(name).family == CurveFamily::BLS24
                     ? nativePairingFingerprint(curveSystem24(name))
                     : nativePairingFingerprint(curveSystem12(name)));
}

TEST_P(AllCurvesEndToEnd, SetupPinned)
{
    const std::string name = GetParam();
    expectGolden("setup." + name,
                 findCurve(name).family == CurveFamily::BLS24
                     ? setupFingerprint(curveSystem24(name))
                     : setupFingerprint(curveSystem12(name)));
}

TEST_P(AllCurvesEndToEnd, FactsMatchDerivation)
{
    // The constructor loads the pinned facts and checks only that they
    // are consistent; that they are the ones the searches find is held
    // here. On a mismatch, paste the printed entry into the catalog.
    const CurveDef &pinned = findCurve(GetParam());
    CurveDef derived = pinned;
    derived.facts = deriveCurveFacts(pinned);
    EXPECT_TRUE(derived.facts == pinned.facts)
        << "derived catalog entry:\n"
        << catalogEntryLiteral(derived);
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllCurvesEndToEnd,
                         ::testing::Values("BN254N", "BN462", "BN638",
                                           "BLS12-381", "BLS12-446",
                                           "BLS12-638", "BLS24-509"),
                         [](const auto &info) {
                             std::string s = info.param;
                             for (char &c : s) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return s;
                         });

} // namespace
} // namespace finesse
