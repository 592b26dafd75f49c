/**
 * @file
 * finesse-cli: command-line front end of the framework (the paper's
 * "modular invocation with command-line parameters").
 *
 * Usage: finesse_cli <command> [config-file] [flags]
 *
 * Every command and flag is documented in core/cliusage.h — the one
 * table `--help` renders and tests/test_cli_help.cpp audits (a flag
 * parsed here but missing there fails the build's test suite, so the
 * help can't drift). The config file uses `key = value` lines (see
 * core/options.h); when omitted, defaults (BN254N, paper hardware
 * model) apply.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "dse/explorer.h"
#include "dse/search.h"
#include "core/cliusage.h"
#include "core/options.h"
#include "isa/progio.h"
#include "serve/servecli.h"
#include "sim/binary.h"
#include "support/diskcache.h"
#include "support/numparse.h"
#include "support/threadpool.h"

using namespace finesse;

namespace {

int
usage()
{
    std::fputs(cliUsageText().c_str(), stderr);
    return 2;
}

/** Per-pass attribution table (instr deltas sum to the aggregate). */
void
printPassStats(const OptStats &opt)
{
    std::printf("%-16s %6s %12s %10s %10s\n", "pass", "runs",
                "instr delta", "share", "seconds");
    i64 sum = 0;
    double seconds = 0.0;
    for (const PassStats &ps : opt.passes) {
        sum += ps.instrsRemoved;
        seconds += ps.seconds;
        const double share =
            opt.instrsBefore
                ? 100.0 * double(ps.instrsRemoved) /
                      double(opt.instrsBefore)
                : 0.0;
        std::printf("%-16s %6d %12lld %9.2f%% %10.3f\n",
                    ps.name.c_str(), ps.invocations,
                    static_cast<long long>(ps.instrsRemoved), share,
                    ps.seconds);
    }
    std::printf("%-16s %6s %12lld %9.2f%% %10.3f\n", "total", "",
                static_cast<long long>(sum),
                opt.reductionPct(), seconds);
    std::printf("aggregate: %zu -> %zu instrs in %d fixpoint sweeps "
                "(per-pass deltas sum to %lld, aggregate delta %lld)\n",
                opt.instrsBefore, opt.instrsAfter, opt.iterations,
                static_cast<long long>(sum),
                static_cast<long long>(opt.instrsBefore) -
                    static_cast<long long>(opt.instrsAfter));
}

/** Value text of a `--flag=value` argument. */
std::string_view
flagText(const std::string &arg)
{
    return std::string_view(arg).substr(arg.find('=') + 1);
}

/** Name a malformed flag value and return the usage exit code. */
int
badFlag(const std::string &arg)
{
    std::fprintf(stderr, "bad %s value: %s\n",
                 arg.substr(0, arg.find('=')).c_str(), arg.c_str());
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    bool passStats = false;
    bool noTraceCache = false;
    int jobs = -1; // -1 = not on the command line; config/default wins
    std::string passList;
    u64 searchSeed = 1;
    int generations = 8;
    int population = 32;
    Objective objective = Objective::MaxThptPerArea;
    bool haveArtifactCache = false;
    std::string artifactCacheDir;
    ServeCliOptions serveOpts;
    // Integer flags: value range = the flag's domain.
    struct IntFlag
    {
        const char *prefix;
        int *value;
        int lo, hi;
    };
    constexpr int kMax = std::numeric_limits<int>::max();
    const IntFlag intFlags[] = {
        {"--jobs=", &jobs, 0, kMax},
        {"--generations=", &generations, 1, kMax},
        {"--population=", &population, 1, kMax},
        {"--batch=", &serveOpts.engine.batchSize, 1, kMax},
        {"--queue=", &serveOpts.engine.maxQueue, 1, kMax},
        {"--serve-port=", &serveOpts.servePort, 0, 65535},
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "help") {
            std::fputs(cliUsageText().c_str(), stdout);
            return 0;
        }
        const IntFlag *intFlag = nullptr;
        for (const IntFlag &f : intFlags) {
            if (arg.rfind(f.prefix, 0) == 0)
                intFlag = &f;
        }
        if (intFlag) {
            const std::optional<int> v =
                parseInt(flagText(arg), intFlag->lo, intFlag->hi);
            if (!v)
                return badFlag(arg);
            *intFlag->value = *v;
        } else if (arg == "--pass-stats") {
            passStats = true;
        } else if (arg == "--no-trace-cache") {
            noTraceCache = true;
        } else if (arg.rfind("--passes=", 0) == 0) {
            passList = arg.substr(9);
        } else if (arg.rfind("--search-seed=", 0) == 0) {
            const std::optional<u64> v = parseU64(flagText(arg));
            if (!v)
                return badFlag(arg);
            searchSeed = *v;
        } else if (arg.rfind("--objective=", 0) == 0) {
            const std::string v = arg.substr(12);
            if (v == "cycles") {
                objective = Objective::MinCycles;
            } else if (v == "throughput") {
                objective = Objective::MaxThroughput;
            } else if (v == "thpt-per-area") {
                objective = Objective::MaxThptPerArea;
            } else if (v == "area") {
                objective = Objective::MinArea;
            } else {
                return badFlag(arg);
            }
        } else if (arg.rfind("--artifact-cache=", 0) == 0) {
            haveArtifactCache = true;
            artifactCacheDir = arg.substr(17);
        } else if (arg.rfind("--serve-seed=", 0) == 0) {
            const std::optional<u64> v = parseU64(flagText(arg));
            if (!v)
                return badFlag(arg);
            serveOpts.engine.seed = *v;
        } else if (arg.rfind("--workload=", 0) == 0) {
            serveOpts.workload = arg.substr(11);
        } else if (arg.rfind("--corrupt=", 0) == 0) {
            serveOpts.corrupt = arg.substr(10);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return usage();
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.empty())
        return usage();
    const std::string command = positional[0];
    // Reject a bad command line before any config load or compile.
    bool known = false;
    for (const CliDoc &d : kCliCommands)
        known = known || command == d.name;
    if (!known || (command == "deploy" && positional.size() < 3))
        return usage();

    // An empty DIR explicitly disables the cache.
    if (haveArtifactCache)
        configureArtifactCache(artifactCacheDir);

    Config cfg;
    if (positional.size() > 1 && command != "exec") {
        std::ifstream in(positional[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open config: %s\n",
                         positional[1].c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        cfg = Config::parse(text.str());
    }

    try {
        if (command == "exec") {
            if (positional.size() < 2)
                return usage();
            BigInt p;
            const EncodedProgram prog =
                loadProgramFile(positional[1], p);
            std::vector<BigInt> inputs;
            for (size_t i = 2; i < positional.size(); ++i)
                inputs.push_back(BigInt::fromString(positional[i]));
            FpCtx fp(p);
            const auto out = runEncoded(prog, fp, inputs);
            for (const BigInt &v : out)
                std::printf("%s\n", v.toHexString().c_str());
            return 0;
        }

        const std::string curve = curveFromConfig(cfg);
        CompileOptions opt = optionsFromConfig(cfg);
        if (!passList.empty())
            opt.passes = parsePassList(passList);
        if (noTraceCache)
            opt.useTraceCache = false;
        if (jobs >= 0)
            opt.jobs = jobs;
        Framework fw(curve);
        std::printf("curve %s | hw %s\n", curve.c_str(),
                    opt.hw.describe().c_str());

        if (command == "serve" || command == "verify-batch") {
            serveOpts.curve = curve;
            serveOpts.compile = opt; // warmup compiles what dse would
            if (jobs >= 0)
                serveOpts.engine.jobs = jobs;
            return command == "serve"
                       ? runServeCommand(serveOpts)
                       : runVerifyBatchCommand(serveOpts);
        }

        if (command == "dse") {
            Explorer ex(curve);
            // The sweep inherits the configured pipeline/cache options;
            // only the operator variants are explored, fanned out over
            // opt.jobs worker threads (identical result for any value).
            const auto t0 = std::chrono::steady_clock::now();
            const DsePoint best =
                ex.exploreVariants(opt, Objective::MinCycles, true);
            const double sweepSeconds = secondsSince(t0);
            const TraceCacheStats cache = traceCacheStats();
            std::printf("swept %zu combos on %d workers in %.2f s "
                        "(trace cache: %zu miss, %zu hit, "
                        "%zu coalesced)\n",
                        ex.variantSpace(true).size(),
                        resolveJobs(opt.jobs), sweepSeconds,
                        cache.misses, cache.hits, cache.coalesced);
            std::printf("best combo: %lld cycles, IPC %.2f, %.2f mm^2, "
                        "%.1f us\n",
                        static_cast<long long>(best.cycles), best.ipc,
                        best.areaMm2, best.latencyUs);
            if (passStats)
                printPassStats(best.opt);
            for (int d : ex.towerDegrees()) {
                std::printf("  level %-2d mul=%s\n", d,
                            toString(best.variants.level(d).mul));
            }
            return 0;
        }

        if (command == "dse-search") {
            Explorer ex(curve);
            SearchOptions sopt;
            sopt.seed = searchSeed;
            sopt.generations = generations;
            sopt.population = population;
            sopt.objective = objective;
            sopt.base = opt;
            const auto t0 = std::chrono::steady_clock::now();
            ParetoSearch search(ex, SearchSpace::standard(ex), sopt);
            const SearchResult sres = search.run();
            const double seconds = secondsSince(t0);
            const TraceCacheStats cache = traceCacheStats();
            const DiskCache *dc = artifactCache();
            std::printf("searched %zu unique points of a %llu-point "
                        "space in %d generations, %.2f s\n",
                        sres.stats.evaluatedUnique,
                        static_cast<unsigned long long>(
                            sres.stats.spaceSize),
                        generations, seconds);
            std::printf("trace cache: %zu miss, %zu hit "
                        "(disk: %zu hit, %zu put)\n",
                        cache.misses, cache.hits, cache.diskHits,
                        cache.diskPuts);
            if (dc != nullptr) {
                std::printf("artifact cache %s: %zu point hits, "
                            "%zu point puts\n",
                            dc->dir().c_str(),
                            sres.stats.pointCacheHits,
                            sres.stats.pointCachePuts);
            }
            std::printf("Pareto frontier (%zu points, fingerprint "
                        "%016llx):\n",
                        sres.frontier.size(),
                        static_cast<unsigned long long>(
                            frontierFingerprint(sres.frontier)));
            std::printf("  %-34s %10s %8s %12s %12s\n", "design",
                        "cycles", "mm^2", "ops/s", "ops/s/mm^2");
            for (const DsePoint &p : sres.frontier) {
                std::printf("  %-34s %10lld %8.2f %12.1f %12.1f\n",
                            p.label.c_str(),
                            static_cast<long long>(p.cycles), p.areaMm2,
                            p.throughputOps, p.thptPerArea);
            }
            const char *objName =
                objective == Objective::MinCycles        ? "cycles"
                : objective == Objective::MaxThroughput  ? "throughput"
                : objective == Objective::MaxThptPerArea ? "thpt-per-area"
                                                         : "area";
            std::printf("best (%s): %s | %lld cycles | %.2f mm^2 | "
                        "%.1f ops/s\n",
                        objName, sres.best.label.c_str(),
                        static_cast<long long>(sres.best.cycles),
                        sres.best.areaMm2, sres.best.throughputOps);
            if (passStats)
                printPassStats(sres.best.opt);
            return 0;
        }

        const CompileResult res = fw.compile(opt);
        std::printf("compiled %zu instrs (IROpt -%.1f%%), %zu bundles, "
                    "%.2f s\n",
                    res.instrs(), res.opt.reductionPct(),
                    res.binary.numBundles, res.compileSeconds);
        if (passStats)
            printPassStats(res.opt);

        if (command == "compile") {
            return 0;
        } else if (command == "validate") {
            const ValidationReport rep = fw.validate(res, 3, opt.part);
            std::printf("validation: %d/%d SSA, %d/%d register file\n",
                        rep.moduleMatches, rep.vectors,
                        rep.allocatedMatches, rep.vectors);
            return rep.allPassed() ? 0 : 1;
        } else if (command == "simulate") {
            const CycleStats sim = fw.simulate(res);
            std::printf("cycles %lld, IPC %.3f, bubbles %lld\n",
                        static_cast<long long>(sim.totalCycles),
                        sim.ipc(),
                        static_cast<long long>(sim.bubbles));
            return 0;
        } else if (command == "area") {
            const CycleStats sim = fw.simulate(res);
            for (int cores : {1, 4, 8}) {
                DsePoint p;
                p.hw = opt.hw;
                p.cores = cores;
                const AreaReport a = fw.area(res, cores);
                fillModelMetrics(p, fw.info().logP(), sim, a);
                std::printf("%d-core: %s | %.0f MHz | %.1f kops | "
                            "%.2f kops/mm^2\n",
                            cores, a.describe().c_str(), p.freqMHz,
                            p.throughputOps / 1e3, p.thptPerArea / 1e3);
            }
            return 0;
        } else if (command == "disasm") {
            std::printf("%s", res.binary.disassemble(24).c_str());
            return 0;
        } else if (command == "deploy") {
            saveProgramFile(positional[2], res.binary, fw.info().p);
            std::printf("program image written to %s (%zu words, "
                        "%zu constants)\n",
                        positional[2].c_str(), res.binary.words.size(),
                        res.binary.constPool.size());
            return 0;
        }
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
