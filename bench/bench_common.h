/**
 * @file
 * Shared helpers for the paper-reproduction benchmark harnesses.
 */
#ifndef FINESSE_BENCHCOMMON_H_
#define FINESSE_BENCHCOMMON_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "support/table.h"

namespace finesse {

inline std::string
fmt(double v, int prec = 2)
{
    std::ostringstream os;
    os.precision(prec);
    os << std::fixed << v;
    return os.str();
}

inline std::string
fmtK(double v, int prec = 1)
{
    if (v >= 1e6)
        return fmt(v / 1e6, prec) + "M";
    if (v >= 1e3)
        return fmt(v / 1e3, prec) + "k";
    return fmt(v, prec);
}

/** Quick-run mode: FINESSE_FAST=1 restricts sweeps for smoke testing. */
inline bool
fastMode()
{
    const char *env = std::getenv("FINESSE_FAST");
    return env && env[0] == '1';
}

inline void
banner(const char *title)
{
    std::printf("\n=== %s ===\n\n", title);
}

/**
 * A bench's speedup floor: prints the ratio against @p floor and
 * returns false (the bench then exits non-zero) when it falls below.
 */
inline bool
meetsFloor(const char *metric, double speedup, double floor)
{
    const bool ok = speedup >= floor;
    std::fprintf(ok ? stdout : stderr, "%s %s %.2fx, floor %.2fx\n",
                 ok ? "ok:" : "FAIL:", metric, speedup, floor);
    return ok;
}

} // namespace finesse

#endif // FINESSE_BENCHCOMMON_H_
