/**
 * @file
 * Bridge from configuration files to compile options: lets a design
 * point be described declaratively (the paper's YAML-driven flow).
 *
 * Recognized keys (any other key is a fatal error naming it, so a
 * typo cannot silently run the default):
 *   curve                 catalog curve name (default BN254N)
 *   optimize              bool, run IROpt (default true)
 *   schedule              bool, list scheduling (default true)
 *   part                  full | miller | finalexp
 *   passes                comma-separated pass pipeline (ablation);
 *                         empty = standard (see compiler/pipeline.h)
 *   trace_cache           bool, reuse cached front-end traces (default
 *                         true)
 *   jobs                  sweep worker threads (0 = hardware
 *                         concurrency, 1 = serial; default 0)
 *   hw.long_lat, hw.short_lat, hw.inv_lat        itineraries
 *   hw.issue_width, hw.lin_units, hw.banks       datapath shape
 *   hw.fifo, hw.fifo_depth, hw.beta              write-back / affinity
 *   variants.mul<D>       schoolbook | karatsuba      (D = 2,4,6,12,24)
 *   variants.sqr<D>       schoolbook | complex | ch-sqr2 | ch-sqr3
 *   variants.g2_coords    jacobian | projective
 *   variants.cyclo        bool, cyclotomic squaring (default true)
 */
#ifndef FINESSE_CORE_OPTIONS_H_
#define FINESSE_CORE_OPTIONS_H_

#include <set>
#include <string>

#include "core/framework.h"
#include "support/config.h"

namespace finesse {

/** Fatal on any key outside the recognized list above, naming it. */
inline void
requireKnownKeys(const Config &cfg)
{
    static const std::set<std::string> known = [] {
        std::set<std::string> keys = {
            "curve", "optimize", "schedule", "part", "passes",
            "trace_cache", "jobs",
            "hw.long_lat", "hw.short_lat", "hw.inv_lat",
            "hw.issue_width", "hw.lin_units", "hw.banks", "hw.fifo",
            "hw.fifo_depth", "hw.beta", "variants.g2_coords",
            "variants.cyclo"};
        for (int d : {2, 4, 6, 12, 24}) {
            keys.insert("variants.mul" + std::to_string(d));
            keys.insert("variants.sqr" + std::to_string(d));
        }
        return keys;
    }();
    for (const auto &entry : cfg.entries()) {
        if (!known.count(entry.first))
            fatal("unknown config key '", entry.first, "'");
    }
}

/** Curve name from a config (default BN254N). */
inline std::string
curveFromConfig(const Config &cfg)
{
    return cfg.getString("curve", "BN254N");
}

/** Build CompileOptions from a parsed config (unknown keys are fatal). */
inline CompileOptions
optionsFromConfig(const Config &cfg)
{
    requireKnownKeys(cfg);
    CompileOptions opt;
    opt.optimize = cfg.getBool("optimize", true);
    opt.listSchedule = cfg.getBool("schedule", true);
    opt.passes = parsePassList(cfg.getString("passes", ""));
    opt.useTraceCache = cfg.getBool("trace_cache", true);
    opt.jobs = cfg.getInt("jobs", 0, 0);

    const std::string part = cfg.getString("part", "full");
    if (part == "miller")
        opt.part = TracePart::MillerOnly;
    else if (part == "finalexp")
        opt.part = TracePart::FinalExpOnly;
    else
        FINESSE_REQUIRE(part == "full", "bad part: ", part);

    opt.hw.longLat = cfg.getInt("hw.long_lat", 38);
    opt.hw.shortLat = cfg.getInt("hw.short_lat", 8);
    opt.hw.invLat = cfg.getInt("hw.inv_lat", 900);
    opt.hw.issueWidth = cfg.getInt("hw.issue_width", 1);
    opt.hw.numLinUnits = cfg.getInt("hw.lin_units", 1);
    opt.hw.numBanks = cfg.getInt("hw.banks", opt.hw.issueWidth);
    opt.hw.writebackFifo =
        cfg.getBool("hw.fifo", opt.hw.issueWidth > 1);
    opt.hw.fifoDepth = cfg.getInt("hw.fifo_depth", 8);
    opt.hw.beta = cfg.getDouble("hw.beta", 0.05);
    opt.hw.validate(); // before first use; messages name the hw.* key

    auto parseMul = [](const std::string &v) {
        if (v == "schoolbook")
            return MulVariant::Schoolbook;
        FINESSE_REQUIRE(v == "karatsuba", "bad mul variant: ", v);
        return MulVariant::Karatsuba;
    };
    auto parseSqr = [](const std::string &v) {
        if (v == "schoolbook")
            return SqrVariant::Schoolbook;
        if (v == "ch-sqr2")
            return SqrVariant::CHSqr2;
        if (v == "ch-sqr3")
            return SqrVariant::CHSqr3;
        FINESSE_REQUIRE(v == "complex", "bad sqr variant: ", v);
        return SqrVariant::Complex;
    };
    for (int d : {2, 4, 6, 12, 24}) {
        const std::string mulKey =
            "variants.mul" + std::to_string(d);
        const std::string sqrKey =
            "variants.sqr" + std::to_string(d);
        if (cfg.has(mulKey))
            opt.variants.levels[d].mul =
                parseMul(cfg.getString(mulKey));
        if (cfg.has(sqrKey))
            opt.variants.levels[d].sqr =
                parseSqr(cfg.getString(sqrKey));
    }
    const std::string coords =
        cfg.getString("variants.g2_coords", "jacobian");
    opt.variants.g2Coords = coords == "projective"
                                ? CoordSystem::Projective
                                : CoordSystem::Jacobian;
    opt.variants.cyclotomicSqr = cfg.getBool("variants.cyclo", true);
    return opt;
}

} // namespace finesse

#endif // FINESSE_CORE_OPTIONS_H_
