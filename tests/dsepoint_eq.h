/**
 * @file
 * The one strict DsePoint comparator of the sweep identity suites
 * (test_parallel_dse).
 */
#ifndef FINESSE_TESTS_DSEPOINT_EQ_H_
#define FINESSE_TESTS_DSEPOINT_EQ_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dse/explorer.h"

namespace finesse {

/**
 * All deterministic DsePoint fields. Doubles compared EXACTLY (==,
 * not near): every engine -- grouped, per-point, threaded, or the
 * artifact cache replaying raw bit patterns -- runs the same code on
 * the same inputs, so every bit must match.
 * Wall times (compileSeconds, per-pass seconds) are exempt -- they
 * are measurements, not results.
 */
inline void
expectSamePoint(const DsePoint &a, const DsePoint &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.mulInstrs, b.mulInstrs);
    EXPECT_EQ(a.linInstrs, b.linInstrs);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.variants.cacheKey(), b.variants.cacheKey());
    EXPECT_EQ(a.hw.describe(), b.hw.describe());
    EXPECT_TRUE(a.ipc == b.ipc);
    EXPECT_TRUE(a.areaMm2 == b.areaMm2);
    EXPECT_TRUE(a.freqMHz == b.freqMHz);
    EXPECT_TRUE(a.criticalPathNs == b.criticalPathNs);
    EXPECT_TRUE(a.latencyUs == b.latencyUs);
    EXPECT_TRUE(a.throughputOps == b.throughputOps);
    EXPECT_TRUE(a.thptPerArea == b.thptPerArea);

    // Compiler attribution: aggregate counters and the deterministic
    // per-pass columns must match bit-exactly too.
    EXPECT_EQ(a.opt.instrsBefore, b.opt.instrsBefore);
    EXPECT_EQ(a.opt.instrsAfter, b.opt.instrsAfter);
    EXPECT_EQ(a.opt.iterations, b.opt.iterations);
    ASSERT_EQ(a.opt.passes.size(), b.opt.passes.size());
    for (size_t i = 0; i < a.opt.passes.size(); ++i) {
        EXPECT_EQ(a.opt.passes[i].name, b.opt.passes[i].name);
        EXPECT_EQ(a.opt.passes[i].invocations,
                  b.opt.passes[i].invocations);
        EXPECT_EQ(a.opt.passes[i].instrsRemoved,
                  b.opt.passes[i].instrsRemoved);
        EXPECT_EQ(a.opt.passes[i].frontend, b.opt.passes[i].frontend);
    }
}

/** expectSamePoint over two index-aligned point lists. */
inline void
expectSamePoints(const std::vector<DsePoint> &ref,
                 const std::vector<DsePoint> &got)
{
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSamePoint(ref[i], got[i]);
    }
}

} // namespace finesse

#endif // FINESSE_TESTS_DSEPOINT_EQ_H_
