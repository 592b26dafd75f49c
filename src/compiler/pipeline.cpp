/**
 * @file
 * PassManager implementation: the IROpt pass registry and the
 * fixpoint loop over the worklist and reference sweep engines.
 */
#include "compiler/pipeline.h"

#include <chrono>

#include "compiler/optcontext.h"
#include "support/common.h"

namespace finesse {

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

const std::vector<std::string> &
frontendPassNames()
{
    static const std::vector<std::string> names = {
        "constfold", "zerooneprop", "strengthreduce", "gvn", "dce"};
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

std::unique_ptr<Pass>
makePass(const std::string &name)
{
    if (auto p = makeFrontendPass(name))
        return p;
    fatal("unknown compiler pass: '", name, "' (known: ",
          "constfold, zerooneprop, strengthreduce, gvn, dce)");
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
PassManager::invoke(Pass &pass, Module &m, OptStats &stats)
{
    PassStats *entry = &ensurePassStats(stats, pass.name(), true);

    const size_t before = m.size();
    const auto start = Clock::now();
    const bool changed = pass.run(m);
    const double dt = secondsSince(start);
    const size_t after = m.size();

    entry->invocations += 1;
    entry->instrsRemoved +=
        static_cast<i64>(before) - static_cast<i64>(after);
    entry->seconds += dt;
    stats.seconds += dt;
    return changed;
}

void
PassManager::run(Module &m, OptStats &stats)
{
    if (passes_.empty())
        return;
    std::vector<Pass *> group;
    group.reserve(passes_.size());
    for (const auto &p : passes_)
        group.push_back(p.get());
    runFrontendWorklist(m, stats, group);
}

void
PassManager::runSweep(Module &m, OptStats &stats)
{
    if (passes_.empty())
        return;
    for (int iter = 0; iter < kMaxFixpointIters; ++iter) {
        ++stats.iterations;
        bool changed = false;
        for (const auto &p : passes_)
            changed |= invoke(*p, m, stats);
        if (!changed)
            break;
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
    OptStats stats;
    stats.instrsBefore = m.size();
    if (!names.empty()) {
        PassManager pm = PassManager::fromNames(names);
        if (worklist)
            pm.run(m, stats);
        else
            pm.runSweep(m, stats);
        m.verify();
    }
    stats.instrsAfter = m.size();
    return stats;
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
