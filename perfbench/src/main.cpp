/**
 * @file
 * finesse_perf: one run of one benchmark workload.
 *
 *   finesse_perf --workload NAME --seed N --seconds S --trace 0|1
 *                --out FILE [--commit ID]
 *
 * A run builds the workload's inputs, then runs kSteps steps; each
 * sets up, serves requests in a closed and an open loop and sets up
 * again (the median of all set-ups is setup_s). Even steps then push
 * the workload's slice of the curve catalog through compile ->
 * validate -> simulate -> area, odd steps run the Pareto search. With --trace 1 it records spans around
 * every library call it makes and then replays the same inputs through
 * the lower layers one call at a time. The result record (environment,
 * end-to-end and per-layer metrics, deterministic counts, correctness
 * errors) is written to FILE as JSON; perfbench/run.py reads it.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "bigint/montkernel.h"
#include "dse/explorer.h"
#include "pairing/cache.h"
#include "serve/engine.h"

using namespace finesse;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const WorkloadSpec *
findWorkload(const std::string &name)
{
    using K = RequestKind;
    static const std::vector<WorkloadSpec> specs = {
        {"bn_family", "BN254N", {K::Bls}, 0, 200.0,
         {"BN254N", "BN462", "BN638"}},
        {"bls_family", "BLS12-381", {K::Bls, K::Bls, K::Kzg, K::Zk}, 3,
         100.0, {"BLS12-381", "BLS12-446", "BLS12-638", "BLS24-509"}},
    };
    for (const WorkloadSpec &s : specs)
        if (s.name == name)
            return &s;
    return nullptr;
}

namespace {

/** Fresh native system for @p curve (the process-wide one is cached). */
void
constructSystem(const std::string &curve)
{
    const CurveDef &def = findCurve(curve);
    if (def.family == CurveFamily::BLS24)
        (void)std::make_unique<CurveSystem24>(def);
    else
        (void)std::make_unique<CurveSystem12>(def);
}

/** Engine start, one full warm-up batch, shutdown. */
void
warmEngine(const CurveSystem12 &sys,
           const std::vector<VerifyRequest> &warm)
{
    Span span("serve.ServeEngine");
    ServeEngine engine(sys, engineOptions());
    std::vector<std::future<Verdict>> verdicts;
    for (const VerifyRequest &req : warm)
        verdicts.push_back(engine.submit(req).verdict);
    for (auto &v : verdicts)
        if (v.valid())
            v.wait();
}

} // namespace

struct SetupPhase::State
{
    const RunConfig &cfg;
    std::set<std::string> curves;
    std::vector<VerifyRequest> warm;
    std::vector<double> totals;
    std::map<std::string, std::vector<double>> perCurve;
};

SetupPhase::SetupPhase(const RunConfig &cfg)
    : st_(std::make_unique<State>(State{cfg, {}, {}, {}, {}}))
{
    State &st = *st_;
    const WorkloadSpec &spec = *cfg.spec;
    st.curves.insert(spec.catalog.begin(), spec.catalog.end());
    st.curves.insert(spec.curve);
    // The process-wide handles the run uses. They are built once, so
    // every timed set-up builds fresh systems and all do the same work.
    for (const std::string &c : st.curves) {
        Span span("core.curveHandle");
        (void)curveHandle(c);
    }
    // Inputs: generated outside the timing.
    WorkloadFactory factory(curveSystem12(spec.curve), cfg.seed ^ 0x3a93ull);
    for (int i = 0; i < kBatch; ++i)
        st.warm.push_back(
            factory.make(spec.pattern[i % spec.pattern.size()], false));
}

SetupPhase::~SetupPhase() = default;

void
SetupPhase::step()
{
    State &st = *st_;
    const WorkloadSpec &spec = *st.cfg.spec;
    Span root("bench.setup");
    double total = 0;
    for (const std::string &c : st.curves) {
        Span span("core.curveSetup");
        const auto t0 = Clock::now();
        constructSystem(c);
        st.perCurve[c].push_back(msSince(t0));
        total += st.perCurve[c].back();
    }
    const auto t0 = Clock::now();
    warmEngine(curveSystem12(spec.curve), st.warm);
    {
        Span span("dse.Explorer");
        const Explorer ex(spec.curve);
        (void)ex.towerDegrees();
    }
    st.totals.push_back(total + msSince(t0));
}

void
SetupPhase::finish(Report &rep)
{
    double curveMs = 0;
    for (const auto &[c, ms] : st_->perCurve)
        curveMs += median(ms);
    rep.e2e["setup_s"] = median(st_->totals) / 1e3;
    rep.layer["core.curve_setup_ms"] = curveMs;
}

} // namespace perfbench

namespace {

using namespace perfbench;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

template <typename Map, typename Fmt>
void
writeMap(std::FILE *f, const char *key, const Map &m, Fmt fmt)
{
    std::fprintf(f, ",\n\"%s\":{", key);
    bool first = true;
    for (const auto &[k, v] : m) {
        std::fprintf(f, "%s%s:%s", first ? "" : ",", jsonString(k).c_str(),
                     fmt(v).c_str());
        first = false;
    }
    std::fprintf(f, "}");
}

bool
writeRecord(const std::string &path, const RunConfig &cfg,
            const std::string &commit, const Report &rep)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
                 "\"seconds\":%.17g,\n\"env\":{\"nproc\":%u,\"adx\":%s,"
                 "\"build_type\":%s,\"git_commit\":%s,\"seed\":%llu},\n"
                 "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu",
                 jsonString(cfg.spec->name).c_str(),
                 static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
                 cfg.seconds, std::thread::hardware_concurrency(),
                 cpuHasAdx() ? "true" : "false",
                 jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                 jsonString(commit).c_str(),
                 static_cast<unsigned long long>(cfg.seed),
                 rep.errors.empty() ? "true" : "false", rep.attempted,
                 rep.failed);
    const auto num = [](double v) {
        if (!std::isfinite(v))
            return std::string("null"); // run.py reports it as missing
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    std::fprintf(f, ",\n\"errors\":[");
    for (size_t i = 0; i < rep.errors.size(); ++i)
        std::fprintf(f, "%s%s", i ? "," : "",
                     jsonString(rep.errors[i]).c_str());
    std::fprintf(f, "]");
    writeMap(f, "e2e", rep.e2e, num);
    writeMap(f, "layer", rep.layer, num);
    writeMap(f, "det", rep.det, jsonString);
    std::fprintf(f, "}\n");
    return std::fclose(f) == 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: finesse_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string out, commit = "unknown", workload;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            cfg.seed = std::stoull(val);
        else if (key == "--seconds")
            cfg.seconds = std::stod(val);
        else if (key == "--trace")
            cfg.trace = val == "1";
        else if (key == "--out")
            out = val;
        else if (key == "--commit")
            commit = val;
        else
            return usage();
    }
    cfg.spec = findWorkload(workload);
    if (cfg.spec == nullptr || out.empty() || cfg.seconds <= 0)
        return usage();

    setTracing(cfg.trace);
    Report rep;
    const double s = cfg.seconds;
    {
        Span root("bench.workload");
        try {
            SetupPhase setup(cfg);
            ServePhase serve(cfg);
            CatalogPhase catalog(cfg);
            SearchPhase search(cfg);
            const size_t openN = std::max<size_t>(
                kOpenMin,
                static_cast<size_t>(cfg.spec->openRate * kOpenShare * s));
            const size_t openPerStep = (openN + kSteps - 1) / kSteps;
            const double closedS = kClosedShare * s;
            for (int step = 0; step < kSteps; ++step) {
                setup.step();
                serve.step(closedS / kSteps, openPerStep);
                // Set-ups apart from each other, so setup_s samples the
                // run as widely as the other metrics do.
                setup.step();
                if (step % 2 == 0)
                    catalog.step(rep);
                else
                    search.step(rep);
            }
            setup.finish(rep);
            serve.finish(rep);
            search.finish(rep); // its replay needs the warm trace cache
            catalog.finish(rep);
        } catch (const std::exception &e) {
            rep.fail(std::string("run aborted: ") + e.what());
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.e2e["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;

    if (cfg.trace) {
        for (const auto &[layer, ms] : layerSelfMs())
            if (layer != "bench")
                rep.layer[layer + ".self_ms"] = ms;
        for (const auto &[name, v] : rep.e2e)
            rep.layer["traced." + name] = v;
        writeTrace(out + ".trace.json");
    }
    if (!writeRecord(out, cfg, commit, rep)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    return rep.errors.empty() ? 0 : 3;
}
