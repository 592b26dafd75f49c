/**
 * @file
 * Ablation study of the scheduler's design choices (supporting
 * Sec. 3.5): issue-slot affinity (beta sweep and off), write-back FIFO
 * depth, and register-bank count under VLIW issue. Quantifies how much
 * each mechanism contributes to the headline IPC of Table 7.
 */
#include "bench_common.h"
#include "dse/explorer.h"

using namespace finesse;

int
main()
{
    banner("Ablation: scheduler mechanisms (BN254N)");
    Explorer ex("BN254N");
    const Module m = ex.framework().handle().trace(
        VariantConfig{}, TracePart::Full, true);

    // ---- affinity parameter beta (single issue) -----------------------
    {
        TextTable t;
        t.header({"beta", "cycles", "IPC", "bubbles"});
        for (double beta : {-1.0, 0.0, 0.02, 0.05, 0.10, 0.20, 1.0}) {
            PipelineModel hw;
            hw.beta = beta;
            const CompileResult res = runBackend(m, hw, true);
            const CycleStats sim = simulateCycles(res.prog);
            std::string label = fmt(beta, 2);
            if (beta <= -1.0)
                label += " (always Short-affine)";
            if (beta >= 1.0)
                label += " (always Long-affine)";
            t.row({label, fmtK(double(sim.totalCycles)),
                   fmt(sim.ipc()), fmtK(double(sim.bubbles))});
        }
        std::printf("Issue-slot affinity parameter beta:\n");
        t.print();
    }

    // ---- write-back FIFO depth (single issue, no FIFO = depth 0) ------
    {
        TextTable t;
        t.header({"FIFO depth", "cycles", "IPC", "max defer"});
        for (int depth : {0, 1, 2, 4, 8, 16}) {
            PipelineModel hw;
            hw.writebackFifo = depth > 0;
            hw.fifoDepth = depth;
            const CompileResult res = runBackend(m, hw, true);
            const CycleStats sim = simulateCycles(res.prog);
            t.row({depth == 0 ? "none (HW1)" : std::to_string(depth),
                   fmtK(double(sim.totalCycles)), fmt(sim.ipc()),
                   std::to_string(sim.maxFifoDefer)});
        }
        std::printf("\nWrite-back ring buffer (Table 7's HW1/HW2 axis):\n");
        t.print();
    }

    // ---- bank count under 3-wide VLIW (Sec. 5 future-work axis) -------
    {
        TextTable t;
        t.header({"banks", "cycles", "IPC", "max regs/bank"});
        for (int banks : {3, 4, 6, 8}) {
            PipelineModel hw;
            hw.issueWidth = 3;
            hw.numLinUnits = 2;
            hw.numBanks = banks;
            hw.writebackFifo = true;
            const CompileResult res = runBackend(m, hw, true);
            const CycleStats sim = simulateCycles(res.prog);
            t.row({std::to_string(banks),
                   fmtK(double(sim.totalCycles)), fmt(sim.ipc()),
                   std::to_string(res.prog.regs.maxRegs())});
        }
        std::printf("\nRegister-bank partitioning under 3-wide VLIW:\n");
        t.print();
    }

    // ---- cyclotomic squaring in the final exponentiation ---------------
    {
        TextTable t;
        t.header({"final-exp sqr", "instrs", "Long instrs", "cycles"});
        for (bool cyclo : {false, true}) {
            VariantConfig vc;
            vc.cyclotomicSqr = cyclo;
            CompileOptions opt;
            opt.variants = vc;
            const DsePoint p = ex.evaluate(opt, 1, "cyclo");
            t.row({cyclo ? "Granger-Scott" : "generic",
                   fmtK(double(p.instrs)), fmtK(double(p.mulInstrs)),
                   fmtK(double(p.cycles))});
        }
        std::printf("\nCyclotomic-subgroup squaring (Sec. 2.1's "
                    "\"cyclotomic subfield optimized\"):\n");
        t.print();
    }

    // ---- Miller / final-exponentiation split (Sec. 2.1's 40/60) -------
    {
        const Module miller = ex.framework().handle().trace(
            VariantConfig{}, TracePart::MillerOnly, true);
        const Module fexp = ex.framework().handle().trace(
            VariantConfig{}, TracePart::FinalExpOnly, true);
        PipelineModel hw;
        const i64 cm =
            simulateCycles(runBackend(miller, hw, true).prog).totalCycles;
        const i64 cf =
            simulateCycles(runBackend(fexp, hw, true).prog).totalCycles;
        std::printf("\nCost split (BN254N): Miller loop %.0f%%, final "
                    "exponentiation %.0f%% (paper: ~40%% / ~60%%)\n",
                    100.0 * double(cm) / double(cm + cf),
                    100.0 * double(cf) / double(cm + cf));
    }
    return 0;
}
