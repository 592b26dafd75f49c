/**
 * @file
 * Backend property tests over randomly generated SSA modules and a
 * parameterized sweep of hardware models: every (module, model) pair
 * must schedule to a functionally equivalent program, respect SSA
 * structure after register allocation, and keep register pressure
 * consistent with the recorded high-water marks.
 */
#include <gtest/gtest.h>

#include "compiler/backendprep.h"
#include "compiler/passes.h"
#include "core/framework.h"
#include "oracles.h"
#include "sim/binary.h"
#include "sim/functional.h"
#include "support/rng.h"

namespace finesse {
namespace {

/** Random straight-line SSA module over a small prime. */
Module
randomModule(Rng &rng, int numInputs, int numOps)
{
    Module m;
    m.p = BigInt::fromString("0x1000000000000000000000000000000d1");
    std::vector<i32> live;
    for (int i = 0; i < numInputs; ++i) {
        const i32 raw = m.numValues++;
        m.inputs.push_back(raw);
        const i32 conv = m.numValues++;
        m.body.push_back({Op::Icv, conv, raw, -1});
        live.push_back(conv);
    }
    // A few constants.
    for (u64 c : {u64{3}, u64{17}, u64{0x123456}}) {
        const i32 id = m.numValues++;
        m.constants.push_back({id, BigInt(c)});
        live.push_back(id);
    }
    const Op ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Sqr, Op::Neg,
                      Op::Dbl, Op::Tpl, Op::Add, Op::Mul};
    for (int i = 0; i < numOps; ++i) {
        const Op op = ops[rng.below(sizeof(ops) / sizeof(ops[0]))];
        const i32 a = live[rng.below(live.size())];
        const i32 b = live[rng.below(live.size())];
        const i32 dst = m.numValues++;
        m.body.push_back(
            {op, dst, a, arity(op) >= 2 ? b : -1});
        live.push_back(dst);
    }
    // A handful of outputs from the live tail.
    for (int i = 0; i < 4; ++i) {
        const i32 v = live[live.size() - 1 - rng.below(8)];
        const i32 out = m.numValues++;
        m.body.push_back({Op::Cvt, out, v, -1});
        m.outputs.push_back(out);
    }
    m.verify();
    return m;
}

struct HwCase
{
    const char *name;
    int issueWidth, linUnits, banks, longLat, shortLat;
    bool fifo;

    PipelineModel
    model() const
    {
        PipelineModel hw;
        hw.issueWidth = issueWidth;
        hw.numLinUnits = linUnits;
        hw.numBanks = banks;
        hw.longLat = longLat;
        hw.shortLat = shortLat;
        hw.writebackFifo = fifo;
        return hw;
    }
};

/** One linear unit under four issue slots: Linear saturates while
 *  slots remain, so the scheduler must move on to the other classes. */
constexpr HwCase kNarrowLin{"narrowlin", 4, 1, 4, 8, 2, true};

class BackendProperty : public ::testing::TestWithParam<HwCase>
{
};

TEST_P(BackendProperty, ScheduledProgramsStayCorrect)
{
    const HwCase &hc = GetParam();
    const PipelineModel hw = hc.model();

    Rng rng(0xabc + hc.issueWidth * 131 + hc.banks);
    for (int trial = 0; trial < 8; ++trial) {
        Module m = randomModule(rng, 3, 120 + int(rng.below(200)));
        FpCtx fp(m.p);
        std::vector<BigInt> inputs;
        for (size_t i = 0; i < m.inputs.size(); ++i)
            inputs.push_back(BigInt::randomBelow(rng, m.p));
        const auto want = runModule(m, fp, inputs);

        for (bool listSched : {false, true}) {
            const CompileResult res = runBackend(m, hw, listSched);
            // 1. Functional equivalence through the register file.
            EXPECT_EQ(runAllocated(res.prog, fp, inputs), want)
                << hc.name << " listSched=" << listSched;
            // 2. ... and through the encoded binary.
            EXPECT_EQ(runEncoded(res.binary, fp, inputs), want)
                << hc.name << " (binary)";
            // 3. Every instruction scheduled exactly once.
            size_t scheduled = 0;
            for (const Bundle &b : res.prog.schedule.bundles) {
                scheduled += b.instIdx.size();
                EXPECT_LE(b.instIdx.size(),
                          static_cast<size_t>(hw.issueWidth));
            }
            EXPECT_EQ(scheduled, m.body.size());
            // 4. Register indexes within the recorded high-water mark.
            for (i32 v = 0; v < m.numValues; ++v) {
                if (res.prog.regs.regOf[v] < 0)
                    continue;
                const i32 bank = res.prog.banks.bankOf[v];
                EXPECT_LT(res.prog.regs.regOf[v],
                          res.prog.regs.maxRegsPerBank[bank]);
            }
            // 5. Cycle simulation terminates with sane numbers.
            const CycleStats sim = simulateCycles(res.prog);
            EXPECT_GE(sim.totalCycles,
                      static_cast<i64>(m.body.size() /
                                       std::max(hw.issueWidth, 1)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, BackendProperty,
    ::testing::Values(
        HwCase{"single", 1, 1, 1, 38, 8, false},
        HwCase{"single_fifo", 1, 1, 1, 38, 8, true},
        HwCase{"shallow", 1, 1, 1, 8, 2, false},
        HwCase{"vliw2", 2, 2, 2, 38, 8, true},
        HwCase{"vliw3", 3, 2, 3, 8, 2, true},
        HwCase{"vliw5", 5, 4, 5, 8, 2, true},
        HwCase{"manybanks", 2, 2, 8, 38, 8, true}, kNarrowLin,
        HwCase{"fig10w7", 7, 6, 7, 8, 2, true}),
    [](const ::testing::TestParamInfo<HwCase> &info) {
        return info.param.name;
    });

/**
 * Full identity check of one (module, hw, mode) point: the dense
 * batched engine (TracePrep + BackendScratch + dense PortTracker)
 * must reproduce the legacy Module-walking reference -- schedule
 * (issueCycle, bundles, estimatedCycles), register assignment,
 * encoding layout and cycle-simulation results (dense tracker vs
 * legacy map tracker) -- bit for bit.
 */
void
expectEnginesIdentical(const Module &m, const TracePrep &prep,
                       const PipelineModel &hw, bool listSched,
                       BackendScratch &scratch, const char *what)
{
    SCOPED_TRACE(std::string(what) +
                 (listSched ? " listSched" : " init"));
    // Prep invariants: defInst names each value's defining body index
    // and numReads mirrors op arity.
    for (size_t i = 0; i < m.body.size(); ++i) {
        EXPECT_EQ(m.body[prep.defInst[m.body[i].dst]].dst,
                  m.body[i].dst);
        EXPECT_EQ(int(prep.numReads[i]), arity(m.body[i].op));
        EXPECT_EQ(UnitClass(prep.unit[i]), unitOf(m.body[i].op));
    }
    BankAssignment banks;
    assignBanksInto(m, hw, banks);
    const Schedule ref = scheduleModuleReference(m, banks, hw, listSched);
    const RegAssignment refRegs = allocateRegistersReference(m, banks, ref);

    // Compile entry point: runBackend, the compile pipeline's backend.
    const CompileResult viaCompile = runBackend(m, hw, listSched);
    EXPECT_EQ(viaCompile.prog.banks, banks);
    EXPECT_EQ(viaCompile.prog.schedule, ref);
    EXPECT_EQ(viaCompile.prog.regs, refRegs);

    // Batched entry point (shared prep, reused scratch).
    BackendPoint bp;
    runBackendPoint(m, prep, hw, listSched, scratch, bp);
    EXPECT_EQ(bp.banks, banks);
    EXPECT_EQ(bp.schedule, ref);
    EXPECT_EQ(bp.regs, refRegs);

    CompiledProgram prog;
    prog.module = m;
    prog.banks = banks;
    prog.schedule = ref;
    prog.regs = refRegs;
    prog.hw = hw;
    EXPECT_EQ(bp.imemBits, encodeProgram(prog).imemBits());

    // Cycle simulation: legacy map tracker vs dense tracker, both the
    // standalone and the scratch-reusing entry points.
    const CycleStats simRef = simulateCyclesReference(prog);
    const CycleStats simDense = simulateCycles(prog);
    const CycleStats simScratch = simulateCycles(
        m, bp.banks, bp.schedule, hw, 10000, 64, &scratch);
    for (const CycleStats *sim : {&simDense, &simScratch}) {
        EXPECT_EQ(sim->totalCycles, simRef.totalCycles);
        EXPECT_EQ(sim->issueCycles, simRef.issueCycles);
        EXPECT_EQ(sim->bubbles, simRef.bubbles);
        EXPECT_EQ(sim->maxFifoDefer, simRef.maxFifoDefer);
        EXPECT_EQ(sim->instrs, simRef.instrs);
    }
}

TEST_P(BackendProperty, DenseEngineMatchesReferenceOracle)
{
    const HwCase &hc = GetParam();
    const PipelineModel hw = hc.model();

    Rng rng(0x5eed + hc.issueWidth * 17 + hc.banks);
    BackendScratch scratch; // reused across trials, like a sweep worker
    for (int trial = 0; trial < 6; ++trial) {
        const Module m =
            randomModule(rng, 3, 150 + int(rng.below(250)));
        const TracePrep prep = buildTracePrep(m);
        for (bool listSched : {false, true})
            expectEnginesIdentical(m, prep, hw, listSched, scratch,
                                   hc.name);
    }
}

TEST(BackendEngineIdentity, CatalogTracesScheduleIdentically)
{
    // Catalog-wide: every curve's optimized full-pairing trace,
    // against a deep single-issue model and a VLIW model, in both
    // scheduling modes, with one scratch reused throughout (the sweep
    // worker pattern). Traces come from the process-wide cache, so
    // repeats across the test binary stay cheap.
    PipelineModel vliw;
    vliw.longLat = 8;
    vliw.shortLat = 2;
    vliw.issueWidth = 3;
    vliw.numLinUnits = 2;
    vliw.numBanks = 3;
    vliw.writebackFifo = true;

    BackendScratch scratch;
    for (const CurveDef &def : curveCatalog()) {
        Framework fw(def.name);
        OptStats stats;
        const std::shared_ptr<const Module> trace =
            fw.traceShared(CompileOptions{}, stats);
        const TracePrep prep = buildTracePrep(*trace);
        EXPECT_EQ(prep.mulInstrs, trace->countUnit(UnitClass::Mul));
        EXPECT_EQ(prep.linInstrs, trace->countUnit(UnitClass::Linear));
        for (const PipelineModel &hw : {PipelineModel{}, vliw}) {
            for (bool listSched : {false, true})
                expectEnginesIdentical(*trace, prep, hw, listSched,
                                       scratch, def.name.c_str());
        }
    }
}

TEST(BackendEngineIdentity, InvOpsAndDeepFifoWindows)
{
    // Inversion latency (900 cycles) forces the widest reservation
    // window the dense tracker sizes; make sure a module with Inv ops
    // still matches the reference in both modes.
    Module m;
    m.p = BigInt::fromString("0x1000000000000000000000000000000d1");
    std::vector<i32> live;
    for (int i = 0; i < 2; ++i) {
        const i32 raw = m.numValues++;
        m.inputs.push_back(raw);
        const i32 conv = m.numValues++;
        m.body.push_back({Op::Icv, conv, raw, -1});
        live.push_back(conv);
    }
    Rng rng(0x111);
    const Op ops[] = {Op::Add, Op::Mul, Op::Inv, Op::Sub, Op::Sqr,
                      Op::Inv, Op::Dbl};
    for (int i = 0; i < 120; ++i) {
        const Op op = ops[rng.below(sizeof(ops) / sizeof(ops[0]))];
        const i32 a = live[rng.below(live.size())];
        const i32 b = live[rng.below(live.size())];
        const i32 dst = m.numValues++;
        m.body.push_back({op, dst, a, arity(op) >= 2 ? b : -1});
        live.push_back(dst);
    }
    const i32 out = m.numValues++;
    m.body.push_back({Op::Cvt, out, live.back(), -1});
    m.outputs.push_back(out);
    m.verify();

    PipelineModel fifo;
    fifo.issueWidth = 2;
    fifo.numLinUnits = 2;
    fifo.numBanks = 2;
    fifo.writebackFifo = true;
    fifo.fifoDepth = 16;

    const TracePrep prep = buildTracePrep(m);
    BackendScratch scratch;
    for (const PipelineModel &hw : {PipelineModel{}, fifo}) {
        for (bool listSched : {false, true})
            expectEnginesIdentical(m, prep, hw, listSched, scratch,
                                   "inv");
    }
}

TEST(BackendEngineIdentity, PriorityTiesAndMixedClasses)
{
    // Many independent chains whose ops are permutations of one
    // multiset (Add, Inv, Sub, Mul), so every chain head has the same
    // priority and, later, Linear, Inv and Mul ops of equal priority
    // are ready together. The chains are emitted round-robin, so body
    // indices interleave Inv ops with linear ops and the index
    // tie-break decides the issue order within and across classes.
    Module m;
    m.p = BigInt::fromString("0x1000000000000000000000000000000d1");
    constexpr int kChains = 24;
    const Op shapes[3][4] = {{Op::Add, Op::Inv, Op::Sub, Op::Mul},
                             {Op::Inv, Op::Add, Op::Mul, Op::Sub},
                             {Op::Mul, Op::Sub, Op::Inv, Op::Add}};
    std::vector<i32> head(kChains), cur(kChains);
    for (int j = 0; j < kChains; ++j) {
        const i32 raw = m.numValues++;
        m.inputs.push_back(raw);
        head[j] = cur[j] = m.numValues++;
        m.body.push_back({Op::Icv, head[j], raw, -1});
    }
    for (int step = 0; step < 4; ++step) {
        for (int j = 0; j < kChains; ++j) {
            const Op op = shapes[j % 3][step];
            const i32 dst = m.numValues++;
            m.body.push_back(
                {op, dst, cur[j], arity(op) >= 2 ? head[j] : -1});
            cur[j] = dst;
        }
    }
    for (int j = 0; j < kChains; ++j) {
        const i32 out = m.numValues++;
        m.body.push_back({Op::Cvt, out, cur[j], -1});
        m.outputs.push_back(out);
    }
    m.verify();

    const TracePrep prep = buildTracePrep(m);
    BackendScratch scratch;
    for (const PipelineModel &hw : {PipelineModel{}, kNarrowLin.model()}) {
        for (bool listSched : {false, true})
            expectEnginesIdentical(m, prep, hw, listSched, scratch,
                                   "ties");
    }
}

TEST(BackendEdge, EmptyishModule)
{
    // Smallest legal program: one input copied to the output.
    Module m;
    m.p = BigInt::fromString("101");
    const i32 raw = m.numValues++;
    m.inputs = {raw};
    const i32 conv = m.numValues++;
    m.body.push_back({Op::Icv, conv, raw, -1});
    const i32 out = m.numValues++;
    m.body.push_back({Op::Cvt, out, conv, -1});
    m.outputs = {out};
    const CompileResult res = runBackend(m, PipelineModel{}, true);
    FpCtx fp(m.p);
    EXPECT_EQ(runAllocated(res.prog, fp, {BigInt(u64{42})}),
              (std::vector<BigInt>{BigInt(u64{42})}));
}

TEST(BackendEdge, RejectsInvalidModel)
{
    PipelineModel hw;
    hw.issueWidth = 4;
    hw.numBanks = 2; // fewer banks than issue width: invalid
    hw.writebackFifo = true;
    EXPECT_THROW(hw.validate(), FatalError);
    PipelineModel hw2;
    hw2.issueWidth = 2; // VLIW without FIFO: invalid
    hw2.numBanks = 2;
    hw2.writebackFifo = false;
    EXPECT_THROW(hw2.validate(), FatalError);
    PipelineModel hw3;
    hw3.longLat = 4;
    hw3.shortLat = 8; // Long must exceed Short
    EXPECT_THROW(hw3.validate(), FatalError);
}


TEST(OptimizerProperty, PreservesSemanticsOnRandomModules)
{
    // IROpt must never change program meaning, whatever it folds.
    Rng rng(0xdead);
    for (int trial = 0; trial < 12; ++trial) {
        Module m = randomModule(rng, 4, 150 + int(rng.below(250)));
        FpCtx fp(m.p);
        std::vector<BigInt> inputs;
        for (size_t i = 0; i < m.inputs.size(); ++i)
            inputs.push_back(BigInt::randomBelow(rng, m.p));
        const auto want = runModule(m, fp, inputs);
        Module optimized = m;
        const OptStats stats = optimizeModule(optimized);
        EXPECT_LE(stats.instrsAfter, stats.instrsBefore);
        EXPECT_EQ(runModule(optimized, fp, inputs), want)
            << "trial " << trial;
    }
}

TEST(OptimizerProperty, Idempotent)
{
    Rng rng(0xbeef);
    Module m = randomModule(rng, 3, 200);
    optimizeModule(m);
    const size_t once = m.size();
    optimizeModule(m);
    EXPECT_EQ(m.size(), once);
}

TEST(SchedulerProperty, Deterministic)
{
    Rng rng(0xfeed);
    Module m = randomModule(rng, 3, 200);
    PipelineModel hw;
    hw.issueWidth = 2;
    hw.numBanks = 2;
    hw.numLinUnits = 2;
    hw.writebackFifo = true;
    const CompileResult a = runBackend(m, hw, true);
    const CompileResult b = runBackend(m, hw, true);
    EXPECT_EQ(a.prog.schedule.estimatedCycles,
              b.prog.schedule.estimatedCycles);
    EXPECT_EQ(a.binary.words, b.binary.words);
}

} // namespace
} // namespace finesse
