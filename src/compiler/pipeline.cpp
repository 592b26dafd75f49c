/**
 * @file
 * PassManager implementation plus the four backend stages (BankAlloc,
 * PackSched, RegAlloc, encode) as passes over the CompilationContext.
 * The stage passes call the same stage functions the DSE sweep's
 * runBackendPoint runs (compiler/backendprep.h).
 */
#include "compiler/pipeline.h"

#include <chrono>

#include "compiler/backendprep.h"
#include "compiler/optcontext.h"
#include "support/common.h"

namespace finesse {

namespace {

using Clock = std::chrono::steady_clock;

/** bankalloc: residual (modulo) value -> register-bank assignment. */
class BankAllocPass final : public Pass
{
  public:
    std::string_view name() const override { return "bankalloc"; }

    bool isFrontend() const override { return false; }

    bool
    run(CompilationContext &ctx) override
    {
        assignBanksInto(ctx.module(), ctx.prog.hw, ctx.prog.banks);
        ctx.hasBanks = true;
        return true;
    }
};

/** packsched: Algorithm 2 list scheduling (or program order). */
class PackSchedPass final : public Pass
{
  public:
    std::string_view name() const override { return "packsched"; }

    bool isFrontend() const override { return false; }

    bool
    run(CompilationContext &ctx) override
    {
        FINESSE_CHECK(ctx.hasBanks,
                      "packsched requires bankalloc in the pipeline");
        const TracePrep prep = buildTracePrep(ctx.module());
        BackendScratch scratch;
        scheduleModule(ctx.module(), prep, ctx.prog.banks, ctx.prog.hw,
                       ctx.listSchedule, scratch, ctx.prog.schedule);
        ctx.hasSchedule = true;
        return true;
    }
};

/** regalloc: linear-scan allocation in schedule order. */
class RegAllocPass final : public Pass
{
  public:
    std::string_view name() const override { return "regalloc"; }

    bool isFrontend() const override { return false; }

    bool
    run(CompilationContext &ctx) override
    {
        FINESSE_CHECK(ctx.hasBanks && ctx.hasSchedule,
                      "regalloc requires bankalloc + packsched");
        BackendScratch scratch;
        allocateRegistersInto(ctx.module(), ctx.prog.banks,
                              ctx.prog.schedule, scratch, ctx.prog.regs);
        ctx.hasRegs = true;
        return true;
    }
};

/** encode: ASM + Link into the parameterized binary format. */
class EncodePass final : public Pass
{
  public:
    std::string_view name() const override { return "encode"; }

    bool isFrontend() const override { return false; }

    bool
    run(CompilationContext &ctx) override
    {
        FINESSE_CHECK(ctx.hasBanks && ctx.hasSchedule && ctx.hasRegs,
                      "encode requires the full backend prefix");
        ctx.binary = encodeProgram(ctx.prog);
        ctx.hasBinary = true;
        return true;
    }
};

} // namespace

const std::vector<std::string> &
frontendPassNames()
{
    static const std::vector<std::string> names = {
        "constfold", "zerooneprop", "strengthreduce", "gvn", "dce"};
    return names;
}

const std::vector<std::string> &
backendPassNames()
{
    static const std::vector<std::string> names = {
        "bankalloc", "packsched", "regalloc", "encode"};
    return names;
}

bool
isFrontendPassName(const std::string &name)
{
    for (const std::string &n : frontendPassNames()) {
        if (n == name)
            return true;
    }
    return false;
}

bool
isBackendPassName(const std::string &name)
{
    for (const std::string &n : backendPassNames()) {
        if (n == name)
            return true;
    }
    return false;
}

std::unique_ptr<Pass>
makeBackendPass(const std::string &name)
{
    if (name == "bankalloc")
        return std::make_unique<BankAllocPass>();
    if (name == "packsched")
        return std::make_unique<PackSchedPass>();
    if (name == "regalloc")
        return std::make_unique<RegAllocPass>();
    if (name == "encode")
        return std::make_unique<EncodePass>();
    return nullptr;
}

std::unique_ptr<Pass>
makePass(const std::string &name)
{
    if (auto p = makeFrontendPass(name))
        return p;
    if (auto p = makeBackendPass(name))
        return p;
    fatal("unknown compiler pass: '", name, "' (known: ",
          "constfold, zerooneprop, strengthreduce, gvn, dce, ",
          "bankalloc, packsched, regalloc, encode)");
}

std::vector<std::string>
parsePassList(const std::string &csv)
{
    std::vector<std::string> names;
    std::string cur;
    auto flush = [&] {
        if (!cur.empty()) {
            makePass(cur); // validates the name
            names.push_back(cur);
            cur.clear();
        }
    };
    for (char c : csv) {
        if (c == ',') {
            flush();
        } else if (c != ' ' && c != '\t') {
            cur += c;
        }
    }
    flush();
    return names;
}

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
    return *this;
}

PassManager &
PassManager::add(const std::string &name)
{
    return add(makePass(name));
}

std::vector<std::string>
PassManager::names() const
{
    std::vector<std::string> out;
    out.reserve(passes_.size());
    for (const auto &p : passes_)
        out.emplace_back(p->name());
    return out;
}

PassStats &
ensurePassStats(OptStats &stats, std::string_view name, bool frontend)
{
    for (PassStats &ps : stats.passes) {
        if (ps.name == name)
            return ps;
    }
    PassStats ps;
    ps.name = name;
    ps.frontend = frontend;
    stats.passes.push_back(std::move(ps));
    return stats.passes.back();
}

bool
PassManager::invoke(Pass &pass, CompilationContext &ctx)
{
    PassStats *entry =
        &ensurePassStats(ctx.stats, pass.name(), pass.isFrontend());

    const size_t before = ctx.module().size();
    const auto start = Clock::now();
    const bool changed = pass.run(ctx);
    const double dt = secondsSince(start);
    const size_t after = ctx.module().size();

    entry->invocations += 1;
    entry->instrsRemoved +=
        static_cast<i64>(before) - static_cast<i64>(after);
    entry->seconds += dt;
    ctx.stats.seconds += dt;
    return changed;
}

void
PassManager::run(CompilationContext &ctx)
{
    runImpl(ctx, /*worklist=*/true);
}

void
PassManager::runSweep(CompilationContext &ctx)
{
    runImpl(ctx, /*worklist=*/false);
}

void
PassManager::runImpl(CompilationContext &ctx, bool worklist)
{
    size_t i = 0;
    while (i < passes_.size()) {
        if (!passes_[i]->isFrontend()) {
            invoke(*passes_[i], ctx);
            ++i;
            continue;
        }
        // Contiguous front-end group: iterate to a fixpoint.
        size_t j = i;
        while (j < passes_.size() && passes_[j]->isFrontend())
            ++j;
        if (worklist) {
            std::vector<Pass *> group;
            group.reserve(j - i);
            for (size_t k = i; k < j; ++k)
                group.push_back(passes_[k].get());
            runFrontendWorklist(ctx, group);
        } else {
            for (int iter = 0; iter < kMaxFixpointIters; ++iter) {
                ++ctx.stats.iterations;
                bool changed = false;
                for (size_t k = i; k < j; ++k)
                    changed |= invoke(*passes_[k], ctx);
                if (!changed)
                    break;
            }
        }
        i = j;
    }
}

PassManager
PassManager::standardFrontend()
{
    PassManager pm;
    for (const std::string &n : frontendPassNames())
        pm.add(n);
    return pm;
}

PassManager
PassManager::standardBackend()
{
    PassManager pm;
    for (const std::string &n : backendPassNames())
        pm.add(n);
    return pm;
}

PassManager
PassManager::fromNames(const std::vector<std::string> &names)
{
    PassManager pm;
    for (const std::string &n : names)
        pm.add(n);
    return pm;
}

namespace {

OptStats
runFrontendImpl(Module &m, const std::vector<std::string> &names,
                bool worklist)
{
    CompilationContext ctx;
    ctx.prog.module = std::move(m);
    ctx.stats.instrsBefore = ctx.module().size();
    if (!names.empty()) {
        for (const std::string &n : names) {
            FINESSE_CHECK(isFrontendPassName(n),
                          "not a front-end pass: ", n);
        }
        PassManager pm = PassManager::fromNames(names);
        if (worklist)
            pm.run(ctx);
        else
            pm.runSweep(ctx);
        ctx.module().verify();
    }
    ctx.stats.instrsAfter = ctx.module().size();
    m = std::move(ctx.prog.module);
    return ctx.stats;
}

} // namespace

OptStats
runFrontendPipeline(Module &m, const std::vector<std::string> &names)
{
    return runFrontendImpl(m, names, /*worklist=*/true);
}

OptStats
runFrontendPipelineSweep(Module &m,
                         const std::vector<std::string> &names)
{
    return runFrontendImpl(m, names, /*worklist=*/false);
}

} // namespace finesse
