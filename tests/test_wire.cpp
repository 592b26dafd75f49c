/**
 * @file
 * Wire-protocol tests: canonical round trips (re-encoding a decoded
 * message reproduces the input bytes, so every field -- doubles as
 * raw bit patterns included -- survives the wire), frame assembly
 * from fragmented streams, and adversarial decode robustness: every
 * truncation and random mutation of a valid payload must either
 * decode or throw FatalError -- never crash, over-allocate or read
 * out of bounds. This suite is part of the asan-ubsan CI job, which
 * is what turns "never UB" from a comment into a checked property.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>

#include <sys/socket.h>
#include <unistd.h>

#include "curve/catalog.h"
#include "dse/distributor.h"
#include "dse/wire.h"
#include "support/rng.h"
#include "support/subprocess.h"

namespace finesse {
namespace {

using namespace wire;

/** A request exercising every serialized CompileOptions field. */
DseRequest
richRequest()
{
    DseRequest req;
    req.label = "probe/one";
    req.cores = 4;
    req.opt.variants.levels[2] = {MulVariant::Karatsuba,
                                  SqrVariant::Complex};
    req.opt.variants.levels[6] = {MulVariant::Schoolbook,
                                  SqrVariant::CHSqr2};
    req.opt.variants.levels[12] = {MulVariant::Karatsuba,
                                   SqrVariant::CHSqr3};
    req.opt.variants.g2Coords = CoordSystem::Projective;
    req.opt.variants.cyclotomicSqr = false;
    req.opt.hw.longLat = 8;
    req.opt.hw.shortLat = 2;
    req.opt.hw.invLat = 901;
    req.opt.hw.issueWidth = 3;
    req.opt.hw.numLinUnits = 2;
    req.opt.hw.numBanks = 3;
    req.opt.hw.writebackFifo = true;
    req.opt.hw.fifoDepth = 16;
    req.opt.hw.beta = 0.07125;
    req.opt.optimize = true;
    req.opt.listSchedule = false;
    req.opt.part = TracePart::MillerOnly;
    req.opt.passes = {"constfold", "gvn", "dce"};
    req.opt.useTraceCache = false;
    req.opt.jobs = 7;
    return req;
}

/** A result point with adversarial doubles (NaN, denormal, -0.0). */
DsePoint
richPoint()
{
    DsePoint p;
    p.label = "pt \"quoted\"";
    p.variants.levels[2] = {MulVariant::Schoolbook,
                            SqrVariant::Schoolbook};
    p.hw.issueWidth = 2;
    p.hw.numBanks = 2;
    p.hw.writebackFifo = true;
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

GroupRequest
sampleRequest()
{
    GroupRequest msg;
    msg.curve = "BLS12-381";
    msg.groupId = 0x1122334455667788ull;
    msg.requests = {richRequest(), DseRequest{}};
    return msg;
}

GroupResult
sampleResult()
{
    GroupResult msg;
    msg.groupId = 42;
    msg.points = {richPoint(), DsePoint{}};
    return msg;
}

std::vector<u8>
payloadOf(const std::vector<u8> &frame)
{
    return std::vector<u8>(frame.begin() +
                               static_cast<std::ptrdiff_t>(kHeaderBytes),
                           frame.end());
}

// ------------------------------------------------------- round trips

TEST(Wire, GroupRequestRoundTripsByteIdentically)
{
    const GroupRequest msg = sampleRequest();
    const std::vector<u8> frame = encodeGroupRequest(msg);
    const GroupRequest decoded = decodeGroupRequest(payloadOf(frame));

    EXPECT_EQ(decoded.curve, msg.curve);
    EXPECT_EQ(decoded.groupId, msg.groupId);
    ASSERT_EQ(decoded.requests.size(), msg.requests.size());
    EXPECT_EQ(decoded.requests[0].label, msg.requests[0].label);
    EXPECT_EQ(decoded.requests[0].opt.variants.cacheKey(),
              msg.requests[0].opt.variants.cacheKey());
    EXPECT_EQ(decoded.requests[0].opt.passes,
              msg.requests[0].opt.passes);
    EXPECT_EQ(decoded.requests[0].opt.part, msg.requests[0].opt.part);
    // jobs stays behind: a worker evaluates its group serially.
    EXPECT_EQ(decoded.requests[0].opt.jobs, CompileOptions{}.jobs);

    // The canonical-encoding check subsumes field-by-field equality:
    // every bit of every field on the wire survived it.
    EXPECT_EQ(encodeGroupRequest(decoded), frame);
}

TEST(Wire, GroupResultRoundTripsByteIdentically)
{
    const GroupResult msg = sampleResult();
    const std::vector<u8> frame = encodeGroupResult(msg);
    const GroupResult decoded = decodeGroupResult(payloadOf(frame));

    ASSERT_EQ(decoded.points.size(), msg.points.size());
    EXPECT_EQ(decoded.points[0].label, msg.points[0].label);
    EXPECT_EQ(decoded.points[0].cycles, msg.points[0].cycles);
    EXPECT_TRUE(std::isnan(decoded.points[0].ipc));
    EXPECT_TRUE(std::signbit(decoded.points[0].areaMm2));
    ASSERT_EQ(decoded.points[0].opt.passes.size(), 2u);
    EXPECT_EQ(decoded.points[0].opt.passes[1].name, "packsched");

    EXPECT_EQ(encodeGroupResult(decoded), frame);
}

TEST(Wire, WorkerErrorRoundTrips)
{
    WorkerError err;
    err.groupId = 9;
    err.message = "unknown curve: X25519";
    const std::vector<u8> frame = encodeWorkerError(err);
    const WorkerError decoded = decodeWorkerError(payloadOf(frame));
    EXPECT_EQ(decoded.groupId, err.groupId);
    EXPECT_EQ(decoded.message, err.message);
    EXPECT_EQ(encodeWorkerError(decoded), frame);
}

TEST(Wire, HelloRoundTripsByteIdentically)
{
    Hello msg;
    msg.version = kProtocolVersion;
    msg.catalogHash = 0xfeedfacecafebeefull;
    const std::vector<u8> frame = encodeHello(msg);
    const Hello decoded = decodeHello(payloadOf(frame));
    EXPECT_EQ(decoded.version, msg.version);
    EXPECT_EQ(decoded.catalogHash, msg.catalogHash);
    EXPECT_EQ(encodeHello(decoded), frame);
}

TEST(Wire, PingPongRoundTripByteIdentically)
{
    Ping ping;
    ping.seq = 0x1122334455667788ull;
    const std::vector<u8> pingFrame = encodePing(ping);
    const Ping pingBack = decodePing(payloadOf(pingFrame));
    EXPECT_EQ(pingBack.seq, ping.seq);
    EXPECT_EQ(encodePing(pingBack), pingFrame);

    Pong pong;
    pong.seq = ~0ull; // heartbeats use 0; probes echo any value
    const std::vector<u8> pongFrame = encodePong(pong);
    const Pong pongBack = decodePong(payloadOf(pongFrame));
    EXPECT_EQ(pongBack.seq, pong.seq);
    EXPECT_EQ(encodePong(pongBack), pongFrame);
}

TEST(Wire, HelloRejectReasonGatesVersionAndCatalogHash)
{
    // The master-side admission check behind the handshake: a worker
    // announcing the compiled-in version AND catalog fingerprint is
    // admitted (empty reason); either field off by one bit names the
    // mismatch. This is what rejects heterogeneous pools at spawn.
    wire::Hello ok;
    ok.version = kProtocolVersion;
    ok.catalogHash = catalogHash();
    EXPECT_TRUE(helloRejectReason(ok).empty());

    wire::Hello wrongVersion = ok;
    wrongVersion.version ^= 1;
    EXPECT_FALSE(helloRejectReason(wrongVersion).empty());

    wire::Hello wrongHash = ok;
    wrongHash.catalogHash ^= 1;
    EXPECT_FALSE(helloRejectReason(wrongHash).empty());
}

// ---------------------------------------------------- frame assembly

TEST(Wire, FrameBufferReassemblesByteDribbledStream)
{
    // Two frames delivered one byte at a time: exactly two frames pop
    // out, each with the right payload, no matter how reads fragment.
    const std::vector<u8> a = encodeGroupRequest(sampleRequest());
    const std::vector<u8> b = encodeGroupResult(sampleResult());
    std::vector<u8> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameBuffer buf;
    std::vector<Frame> got;
    Frame f;
    for (u8 byte : stream) {
        buf.append(&byte, 1);
        while (buf.next(f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, FrameType::GroupRequest);
    EXPECT_EQ(got[1].type, FrameType::GroupResult);
    EXPECT_EQ(got[0].payload, payloadOf(a));
    EXPECT_EQ(got[1].payload, payloadOf(b));
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

TEST(Wire, FrameBufferRejectsBadMagic)
{
    std::vector<u8> frame = encodeWorkerError({0, "x"});
    frame[0] ^= 0xff;
    FrameBuffer buf;
    buf.append(frame.data(), frame.size());
    Frame f;
    EXPECT_THROW(buf.next(f), FatalError);
}

TEST(Wire, FrameBufferRejectsUnknownType)
{
    std::vector<u8> frame = encodeWorkerError({0, "x"});
    frame[4] = 0x7f; // type byte
    FrameBuffer buf;
    buf.append(frame.data(), frame.size());
    Frame f;
    EXPECT_THROW(buf.next(f), FatalError);
}

TEST(Wire, FrameBufferAcceptsHandshakeAndLivenessTypes)
{
    // The protocol-2 types (Hello=4, Ping=5, Pong=6) assemble like any
    // frame; one past the last known type is rejected -- the guard
    // must track the enum, not stay pinned at WorkerError.
    const std::vector<std::vector<u8>> frames = {
        encodeHello({kProtocolVersion, 7}), encodePing({1}),
        encodePong({1})};
    FrameBuffer buf;
    for (const std::vector<u8> &fr : frames)
        buf.append(fr.data(), fr.size());
    Frame f;
    ASSERT_TRUE(buf.next(f));
    EXPECT_EQ(f.type, FrameType::Hello);
    ASSERT_TRUE(buf.next(f));
    EXPECT_EQ(f.type, FrameType::Ping);
    ASSERT_TRUE(buf.next(f));
    EXPECT_EQ(f.type, FrameType::Pong);
    EXPECT_FALSE(buf.next(f));

    std::vector<u8> bad = encodePong({1});
    bad[4] = static_cast<u8>(FrameType::Pong) + 1;
    FrameBuffer rejecting;
    rejecting.append(bad.data(), bad.size());
    EXPECT_THROW(rejecting.next(f), FatalError);
}

TEST(Wire, FrameBufferRejectsOversizedLength)
{
    // Header claims a payload beyond kMaxPayload: must be rejected
    // up front, not buffered toward a 4 GiB allocation.
    std::vector<u8> frame = encodeWorkerError({0, "x"});
    const u32 huge = static_cast<u32>(kMaxPayload) + 1;
    for (int i = 0; i < 4; ++i)
        frame[5 + static_cast<size_t>(i)] =
            static_cast<u8>(huge >> (8 * i));
    FrameBuffer buf;
    buf.append(frame.data(), frame.size());
    Frame f;
    EXPECT_THROW(buf.next(f), FatalError);
}

TEST(Wire, FrameBufferHonorsLoweredPayloadCap)
{
    // The handshake hardening: before a peer's Hello is validated the
    // master caps its frame buffer at a few KB, so a forged length
    // prefix cannot drive a large allocation. A frame whose header
    // claims more than the cap is rejected AT HEADER-DECODE TIME --
    // the poison fires even though none of the payload ever arrives.
    std::vector<u8> frame = encodeWorkerError({0, "x"});
    const u32 claimed = 8192;
    for (int i = 0; i < 4; ++i)
        frame[5 + static_cast<size_t>(i)] =
            static_cast<u8>(claimed >> (8 * i));

    FrameBuffer capped;
    capped.maxPayload(4096);
    capped.append(frame.data(), wire::kHeaderBytes); // header only
    Frame f;
    EXPECT_THROW(capped.next(f), FatalError);

    // The same header under the default cap just waits for its bytes.
    FrameBuffer uncapped;
    uncapped.append(frame.data(), wire::kHeaderBytes);
    EXPECT_FALSE(uncapped.next(f));
}

TEST(Wire, FrameBufferCapCannotExceedProtocolMax)
{
    // maxPayload clamps to kMaxPayload: a caller cannot accidentally
    // re-open the 4 GiB allocation hole by passing a huge cap.
    std::vector<u8> frame = encodeWorkerError({0, "x"});
    const u32 huge = static_cast<u32>(kMaxPayload) + 1;
    for (int i = 0; i < 4; ++i)
        frame[5 + static_cast<size_t>(i)] =
            static_cast<u8>(huge >> (8 * i));
    FrameBuffer buf;
    buf.maxPayload(~size_t{0});
    buf.append(frame.data(), frame.size());
    Frame f;
    EXPECT_THROW(buf.next(f), FatalError);
}

TEST(Wire, FramesSurviveASocketpairInArbitraryFragments)
{
    // The same reassembly property as the byte-dribble test, but
    // through a real AF_UNIX stream socket with the production fd
    // helpers (writeAllFd / readSomeFd) -- the path every socket
    // transport shares. Writes are fragmented at prime-ish sizes so
    // reads observe arbitrary splits.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    const std::vector<u8> a = encodeGroupRequest(sampleRequest());
    const std::vector<u8> b = encodeGroupResult(sampleResult());
    std::vector<u8> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameBuffer buf;
    std::vector<Frame> got;
    Frame f;
    u8 chunk[64];
    size_t sent = 0;
    while (sent < stream.size()) {
        const size_t n = std::min<size_t>(37, stream.size() - sent);
        ASSERT_TRUE(writeAllFd(sv[0], stream.data() + sent, n));
        sent += n;
        for (;;) {
            // Drain what the socket has buffered; the writer end is
            // this same thread, so a short read just means "caught up".
            const long r = readSomeFd(sv[1], chunk, sizeof chunk);
            ASSERT_GT(r, 0);
            buf.append(chunk, static_cast<size_t>(r));
            while (buf.next(f))
                got.push_back(f);
            if (static_cast<size_t>(r) < sizeof chunk)
                break;
        }
    }
    ::close(sv[0]);
    ::close(sv[1]);

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, FrameType::GroupRequest);
    EXPECT_EQ(got[1].type, FrameType::GroupResult);
    EXPECT_EQ(got[0].payload, payloadOf(a));
    EXPECT_EQ(got[1].payload, payloadOf(b));
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

TEST(Wire, FrameBufferWaitsOnIncompleteFrame)
{
    const std::vector<u8> frame = encodeGroupRequest(sampleRequest());
    FrameBuffer buf;
    buf.append(frame.data(), frame.size() - 1);
    Frame f;
    EXPECT_FALSE(buf.next(f));
    EXPECT_GT(buf.pendingBytes(), 0u);
    buf.append(frame.data() + frame.size() - 1, 1);
    EXPECT_TRUE(buf.next(f));
    EXPECT_EQ(buf.pendingBytes(), 0u);
}

// ------------------------------------------------- decode robustness

/**
 * Decoding arbitrary bytes must either succeed or throw FatalError;
 * anything else (crash, OOB read, huge allocation) fails the test --
 * and the asan-ubsan CI job catches the silent variants.
 */
template <typename Decoder>
void
expectNoUb(const std::vector<u8> &payload, Decoder decode)
{
    try {
        decode(payload);
    } catch (const FatalError &) {
        // Rejected cleanly: the expected outcome for junk.
    }
}

TEST(Wire, EveryTruncationOfValidPayloadsIsRejectedCleanly)
{
    const std::vector<u8> req =
        payloadOf(encodeGroupRequest(sampleRequest()));
    for (size_t n = 0; n < req.size(); ++n) {
        std::vector<u8> cut(req.begin(),
                            req.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(decodeGroupRequest(cut), FatalError)
            << "prefix " << n << " of " << req.size();
    }

    const std::vector<u8> res =
        payloadOf(encodeGroupResult(sampleResult()));
    for (size_t n = 0; n < res.size(); ++n) {
        std::vector<u8> cut(res.begin(),
                            res.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(decodeGroupResult(cut), FatalError)
            << "prefix " << n << " of " << res.size();
    }

    const std::vector<u8> hello = payloadOf(
        encodeHello({kProtocolVersion, 0xfeedfacecafebeefull}));
    for (size_t n = 0; n < hello.size(); ++n) {
        std::vector<u8> cut(
            hello.begin(),
            hello.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(decodeHello(cut), FatalError)
            << "prefix " << n << " of " << hello.size();
    }

    const std::vector<u8> ping =
        payloadOf(encodePing({0x1122334455667788ull}));
    for (size_t n = 0; n < ping.size(); ++n) {
        std::vector<u8> cut(
            ping.begin(), ping.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(decodePing(cut), FatalError)
            << "prefix " << n << " of " << ping.size();
        EXPECT_THROW(decodePong(cut), FatalError)
            << "prefix " << n << " of " << ping.size();
    }
}

TEST(Wire, HandshakeAndLivenessTrailingGarbageIsRejected)
{
    std::vector<u8> hello =
        payloadOf(encodeHello({kProtocolVersion, 1}));
    hello.push_back(0);
    EXPECT_THROW(decodeHello(hello), FatalError);

    std::vector<u8> pong = payloadOf(encodePong({1}));
    pong.push_back(0);
    EXPECT_THROW(decodePong(pong), FatalError);
}

TEST(Wire, TrailingGarbageIsRejected)
{
    std::vector<u8> req = payloadOf(encodeGroupRequest(sampleRequest()));
    req.push_back(0);
    EXPECT_THROW(decodeGroupRequest(req), FatalError);
}

TEST(Wire, SingleByteMutationFuzz)
{
    // Flip random bytes of valid payloads: decode must never
    // misbehave. (Many mutations still decode -- e.g. a flipped bit
    // inside a double -- which is fine; the property under test is
    // "no UB on corrupted input", not "all corruption detected".)
    Rng rng(0xD15E);
    const std::vector<u8> req =
        payloadOf(encodeGroupRequest(sampleRequest()));
    const std::vector<u8> res =
        payloadOf(encodeGroupResult(sampleResult()));
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<u8> mut = (iter & 1) ? req : res;
        const size_t pos = rng.below(mut.size());
        mut[pos] ^= static_cast<u8>(1 + rng.below(255));
        if (iter & 1)
            expectNoUb(mut, [](const std::vector<u8> &p) {
                decodeGroupRequest(p);
            });
        else
            expectNoUb(mut, [](const std::vector<u8> &p) {
                decodeGroupResult(p);
            });
    }
}

TEST(Wire, RandomBytesFuzz)
{
    // Pure noise payloads of varied sizes, plus noise with a valid
    // length-looking prefix: reject or decode, never UB.
    Rng rng(0xF00D);
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<u8> junk(rng.below(256));
        for (u8 &b : junk)
            b = static_cast<u8>(rng.below(256));
        expectNoUb(junk, [](const std::vector<u8> &p) {
            decodeGroupRequest(p);
        });
        expectNoUb(junk, [](const std::vector<u8> &p) {
            decodeGroupResult(p);
        });
        expectNoUb(junk, [](const std::vector<u8> &p) {
            decodeWorkerError(p);
        });
        expectNoUb(junk, [](const std::vector<u8> &p) { decodeHello(p); });
        expectNoUb(junk, [](const std::vector<u8> &p) { decodePing(p); });
        expectNoUb(junk, [](const std::vector<u8> &p) { decodePong(p); });
    }
}

TEST(Wire, OutOfRangeRequestsAreRejectedAtDecode)
{
    // A model that would divide by zero in the backend stages or
    // size a multi-GB port tracker, or a core count below one, must
    // fail at decode -- the worker replies with an error instead of
    // dying on SIGFPE or bad_alloc mid-group.
    const std::vector<void (*)(DseRequest &)> breakers = {
        [](DseRequest &r) { r.opt.hw.numBanks = 0; },
        [](DseRequest &r) { r.opt.hw.issueWidth = 0; },
        [](DseRequest &r) { r.opt.hw.shortLat = -3; },
        [](DseRequest &r) { r.opt.hw.invLat = -5; },
        [](DseRequest &r) {
            r.opt.hw.writebackFifo = true;
            r.opt.hw.fifoDepth = 0;
        },
        [](DseRequest &r) { r.cores = 0; },
        // Upper bounds: a worker must not size a multi-GB tracker.
        [](DseRequest &r) { r.opt.hw.invLat = INT_MAX; },
        [](DseRequest &r) { r.opt.hw.longLat = INT_MAX; },
        [](DseRequest &r) { r.opt.hw.numBanks = 2000000000; },
        [](DseRequest &r) {
            r.opt.hw.writebackFifo = true;
            r.opt.hw.fifoDepth = 100000;
        },
        [](DseRequest &r) { r.opt.hw.writesPerBank = 1000; },
    };
    for (size_t i = 0; i < breakers.size(); ++i) {
        SCOPED_TRACE(i);
        GroupRequest msg = sampleRequest();
        breakers[i](msg.requests[1]);
        EXPECT_THROW(decodeGroupRequest(payloadOf(encodeGroupRequest(msg))),
                     FatalError);
    }
}

TEST(Wire, HugeElementCountsAreRejectedWithoutAllocating)
{
    // A payload whose request count claims 2^32-1 entries but carries
    // no bytes: the count bound must reject it before any reserve.
    WireWriter w;
    w.str("BN254N");
    w.u64v(1);
    w.u32v(0xffffffffu);
    EXPECT_THROW(decodeGroupRequest(w.bytes()), FatalError);

    WireWriter w2;
    w2.u64v(1);
    w2.u32v(0xfffffff0u);
    EXPECT_THROW(decodeGroupResult(w2.bytes()), FatalError);
}

} // namespace
} // namespace finesse
