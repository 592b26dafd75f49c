/**
 * @file
 * End-to-end sweep: for every catalog curve, compile the full pairing
 * and cross-validate the compiled program against the native library
 * (SSA level and register-file level). This is the strongest
 * whole-framework guarantee in the suite. Each curve's deterministic
 * compile outputs are also pinned by tests/golden/catalog.txt.
 */
#include <gtest/gtest.h>

#include "core/framework.h"
#include "golden.h"

namespace finesse {
namespace {

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
