/**
 * @file
 * Table 7 reproduction: compilation-strategy evaluation across all
 * catalog curves. Init = literature-level trace, program-order issue;
 * Opt = IROpt (constant/zero propagation, GVN, DCE, strength
 * reduction) + affinity list scheduling; the trace already multiplies
 * Miller-loop lines sparsely. HW1/HW2 = pipeline model without/with
 * the write-back FIFO. Also reports compile times (paper: 8.0 s
 * BN254N to 53.1 s BLS24-509) and, per curve, the share of the
 * reduction delivered by each individual IROpt pass so Table 7 can be
 * reproduced per-optimization.
 */
#include "bench_common.h"
#include "dse/explorer.h"

using namespace finesse;

namespace {

/**
 * "-<pct>%" appended into one string: the chained form
 * `"-" + fmt(...) + "%"` trips a GCC 12 -Wrestrict false positive.
 */
std::string
negPct(double pct, int digits)
{
    std::string cell = "-";
    cell.append(fmt(pct, digits)).append("%");
    return cell;
}

} // namespace

int
main()
{
    banner("Table 7: compilation strategies (instr reduction + IPC)");
    std::vector<std::string> names;
    for (const CurveDef &def : curveCatalog())
        names.push_back(def.name);
    if (fastMode())
        names = {"BN254N", "BLS12-381"};

    TextTable t;
    t.header({"Curve", "Instr Init->Opt", "Reduction", "IPC Init",
              "IPC Opt (HW1/HW2)", "Compile(s)", "Re-cfg(s)"});
    TextTable perPass;
    {
        std::vector<std::string> header = {"Curve"};
        for (const std::string &pass : frontendPassNames())
            header.push_back(pass);
        header.push_back("sum");
        perPass.header(header);
    }

    for (const std::string &name : names) {
        Framework fw(name);

        CompileOptions init;
        init.optimize = false;
        init.listSchedule = false;
        const CompileResult rInit = fw.compile(init);
        const CycleStats sInit = simulateCycles(rInit.prog);

        CompileOptions hw1;
        hw1.hw.writebackFifo = false;
        const CompileResult r1 = fw.compile(hw1);
        const CycleStats s1 = simulateCycles(r1.prog);

        CompileOptions hw2;
        hw2.hw.writebackFifo = true;
        const CompileResult r2 = fw.compile(hw2);
        const CycleStats s2 = simulateCycles(r2.prog);

        const double reduction =
            100.0 * (1.0 - double(r1.instrs()) / double(rInit.instrs()));
        t.row({name,
               fmtK(double(rInit.instrs())) + " -> " +
                   fmtK(double(r1.instrs())),
               negPct(reduction, 1), fmt(sInit.ipc()),
               fmt(s1.ipc()) + " / " + fmt(s2.ipc()),
               // HW1 is a full (trace + IROpt + backend) compile: the
               // paper's compile-time metric. HW2 shares the front end
               // through the trace cache, so its time is the
               // backend-only re-configuration cost.
               fmt(r1.compileSeconds, 1), fmt(r2.compileSeconds, 2)});

        // Per-pass attribution: each pass's instruction delta as a
        // share of the pre-IROpt instruction count. The per-pass
        // deltas sum to the aggregate reduction by construction.
        std::vector<std::string> cells = {name};
        double sum = 0.0;
        for (const std::string &pass : frontendPassNames()) {
            const double pct = r1.opt.passReductionPct(pass);
            sum += pct;
            cells.push_back(negPct(pct, 2));
        }
        cells.push_back(negPct(sum, 2));
        perPass.row(cells);
    }
    t.print();

    std::printf("\nPer-pass share of the Init->Opt reduction "
                "(aggregate percentages attribute every removed "
                "instruction to the pass that eliminated it):\n\n");
    perPass.print();

    std::printf("\nPaper anchors: reductions of 8.5-16.4%%; IPC "
                "0.19-0.22 -> 0.87-0.97; compile times (Compile(s), "
                "one full trace+IROpt+backend run) of seconds to "
                "under a minute. Re-cfg(s) is the backend-only cost "
                "of re-targeting the cached front-end trace at a new "
                "hardware model.\n");
    return 0;
}
