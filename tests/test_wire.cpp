/**
 * @file
 * DsePoint codec tests (dse/wire.h, the payload of the artifact
 * cache's design-point entries): canonical round trips (re-encoding a
 * decoded point reproduces the input bytes, so every field -- doubles
 * as raw bit patterns included -- survives the cache), a pinned byte
 * layout, and adversarial decode robustness: every truncation and
 * random mutation of a valid payload must either decode or throw
 * FatalError -- never crash, over-allocate or read out of bounds.
 * This suite is part of the asan-ubsan CI job, which is what turns
 * "never UB" from a comment into a checked property.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>

#include "dse/wire.h"
#include "support/diskcache.h"
#include "support/rng.h"

namespace finesse {
namespace {

using namespace wire;

/** A point with adversarial doubles (NaN, denormal, -0.0). */
DsePoint
richPoint()
{
    DsePoint p;
    p.label = "pt \"quoted\"";
    p.variants.levels[2] = {MulVariant::Schoolbook,
                            SqrVariant::Schoolbook};
    p.variants.levels[6] = {MulVariant::Karatsuba, SqrVariant::CHSqr2};
    p.variants.levels[12] = {MulVariant::Karatsuba, SqrVariant::CHSqr3};
    p.variants.g2Coords = CoordSystem::Projective;
    p.variants.cyclotomicSqr = false;
    p.hw.longLat = 8;
    p.hw.shortLat = 2;
    p.hw.invLat = 901;
    p.hw.issueWidth = 3;
    p.hw.numLinUnits = 2;
    p.hw.numBanks = 3;
    p.hw.writebackFifo = true;
    p.hw.fifoDepth = 16;
    p.hw.beta = 0.07125;
    p.cores = 8;
    p.instrs = 123456;
    p.mulInstrs = 4242;
    p.linInstrs = 99;
    p.cycles = -1; // i64 sign round trip
    p.ipc = std::numeric_limits<double>::quiet_NaN();
    p.areaMm2 = -0.0;
    p.freqMHz = std::numeric_limits<double>::denorm_min();
    p.criticalPathNs = 1.0 / 3.0;
    p.latencyUs = std::numeric_limits<double>::infinity();
    p.throughputOps = 1e300;
    p.thptPerArea = 5e-324;
    p.compileSeconds = 0.25;
    p.opt.instrsBefore = 1000;
    p.opt.instrsAfter = 600;
    p.opt.iterations = 3;
    p.opt.seconds = 0.125;
    PassStats ps;
    ps.name = "gvn";
    ps.invocations = 2;
    ps.instrsRemoved = -7;
    ps.seconds = 0.5;
    ps.frontend = true;
    p.opt.passes = {ps, ps};
    p.opt.passes[1].name = "packsched";
    p.opt.passes[1].frontend = false;
    return p;
}

std::vector<u8>
encode(const DsePoint &p)
{
    ByteWriter w;
    putPoint(w, p);
    return w.take();
}

/** Decode exactly one point, as the artifact cache does. */
DsePoint
decode(const std::vector<u8> &bytes)
{
    ByteReader r(bytes);
    DsePoint p = getPoint(r);
    r.expectEnd();
    return p;
}

// ------------------------------------------------------- round trips

TEST(Wire, PointRoundTripsByteIdentically)
{
    const std::vector<u8> bytes = encode(richPoint());
    const DsePoint decoded = decode(bytes);

    EXPECT_EQ(decoded.label, richPoint().label);
    EXPECT_EQ(decoded.cycles, -1);
    EXPECT_EQ(decoded.variants.cacheKey(), richPoint().variants.cacheKey());
    EXPECT_EQ(decoded.hw.describe(), richPoint().hw.describe());
    EXPECT_TRUE(std::isnan(decoded.ipc));
    EXPECT_TRUE(std::signbit(decoded.areaMm2));
    ASSERT_EQ(decoded.opt.passes.size(), 2u);
    EXPECT_EQ(decoded.opt.passes[1].name, "packsched");

    // The canonical-encoding check subsumes field-by-field equality:
    // every bit of every encoded field survived the round trip.
    EXPECT_EQ(encode(decoded), bytes);
    EXPECT_EQ(encode(decode(encode(DsePoint{}))), encode(DsePoint{}));
}

TEST(Wire, LayoutIsPinnedToCodecVersion)
{
    // Every point's artifact key carries kPointCodecVersion, so a
    // layout change that keeps the version would serve old entries
    // as new ones. Changing these bytes means bumping the version
    // (and updating both constants here).
    const std::vector<u8> bytes = encode(richPoint());
    EXPECT_EQ(kPointCodecVersion, 3u);
    EXPECT_EQ(bytes.size(), 278u);
    EXPECT_EQ(DiskCache::fnv1a(bytes.data(), bytes.size()),
              0x1631148cb761d154ull);
}

// ------------------------------------------------- decode robustness

/**
 * Decoding arbitrary bytes must either succeed or throw FatalError;
 * anything else (crash, OOB read, huge allocation) fails the test --
 * and the asan-ubsan CI job catches the silent variants.
 */
void
expectNoUb(const std::vector<u8> &payload)
{
    try {
        decode(payload);
    } catch (const FatalError &) {
        // Rejected cleanly: the expected outcome for junk.
    }
}

TEST(Wire, EveryTruncationOfValidPayloadsIsRejectedCleanly)
{
    for (const DsePoint &p : {richPoint(), DsePoint{}}) {
        const std::vector<u8> bytes = encode(p);
        for (size_t n = 0; n < bytes.size(); ++n) {
            std::vector<u8> cut(bytes.begin(),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(n));
            EXPECT_THROW(decode(cut), FatalError)
                << "prefix " << n << " of " << bytes.size();
        }
    }
}

TEST(Wire, TrailingGarbageIsRejected)
{
    std::vector<u8> bytes = encode(richPoint());
    bytes.push_back(0);
    EXPECT_THROW(decode(bytes), FatalError);
}

TEST(Wire, SingleByteMutationFuzz)
{
    // Flip random bytes of valid payloads: decode must never
    // misbehave. (Many mutations still decode -- e.g. a flipped bit
    // inside a double -- which is fine; the property under test is
    // "no UB on corrupted input", not "all corruption detected".)
    Rng rng(0xD15E);
    const std::vector<u8> rich = encode(richPoint());
    const std::vector<u8> plain = encode(DsePoint{});
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<u8> mut = (iter & 1) ? rich : plain;
        const size_t pos = rng.below(mut.size());
        mut[pos] ^= static_cast<u8>(1 + rng.below(255));
        expectNoUb(mut);
    }
}

TEST(Wire, RandomBytesFuzz)
{
    // Pure noise payloads of varied sizes: reject or decode, never UB.
    Rng rng(0xF00D);
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<u8> junk(rng.below(512));
        for (u8 &b : junk)
            b = static_cast<u8>(rng.below(256));
        expectNoUb(junk);
    }
}

TEST(Wire, OutOfRangeHardwareIsRejectedAtDecode)
{
    // A model that would divide by zero in the backend stages or
    // size a multi-GB port tracker must fail at decode: a corrupted
    // cache entry is discarded instead of crashing the sweep.
    const std::vector<void (*)(PipelineModel &)> breakers = {
        [](PipelineModel &m) { m.numBanks = 0; },
        [](PipelineModel &m) { m.issueWidth = 0; },
        [](PipelineModel &m) { m.shortLat = -3; },
        [](PipelineModel &m) { m.invLat = -5; },
        [](PipelineModel &m) {
            m.writebackFifo = true;
            m.fifoDepth = 0;
        },
        [](PipelineModel &m) { m.invLat = INT_MAX; },
        [](PipelineModel &m) { m.longLat = INT_MAX; },
        [](PipelineModel &m) { m.numBanks = 2000000000; },
        [](PipelineModel &m) {
            m.writebackFifo = true;
            m.fifoDepth = 100000;
        },
        [](PipelineModel &m) { m.writesPerBank = 1000; },
    };
    for (size_t i = 0; i < breakers.size(); ++i) {
        SCOPED_TRACE(i);
        DsePoint p = richPoint();
        breakers[i](p.hw);
        EXPECT_THROW(decode(encode(p)), FatalError);
    }
}

TEST(Wire, HugeElementCountsAreRejectedWithoutAllocating)
{
    // A variant-level count claiming 2^32-1 entries the payload
    // cannot hold: the count bound must reject it before any reserve.
    std::vector<u8> bytes = encode(DsePoint{});
    // Bytes 0-3: the empty label's length; 4-7: the level count.
    for (size_t i = 4; i < 8; ++i)
        bytes[i] = 0xff;
    EXPECT_THROW(decode(bytes), FatalError);
}

} // namespace
} // namespace finesse
