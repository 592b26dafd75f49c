/**
 * @file
 * Wire codec implementation. Every decoder validates as it reads:
 * enum bytes are range-checked, element counts are bounded by the
 * bytes actually present, and payloads must be consumed exactly.
 */
#include "dse/wire.h"

#include "core/artifacts.h"

namespace finesse {
namespace wire {

namespace {

// Conservative lower bounds on one encoded element, used to reject
// element counts the payload cannot possibly hold (a DseRequest
// encodes to >= 75 bytes, a DsePoint to >= 191; claiming less than
// the bound is provably corrupt).
constexpr size_t kMinRequestBytes = 64;
constexpr size_t kMinPointBytes = 128;

MulVariant
mulFromWire(u8 v)
{
    if (v > static_cast<u8>(MulVariant::Karatsuba))
        fatal("wire: bad MulVariant ", static_cast<int>(v));
    return static_cast<MulVariant>(v);
}

SqrVariant
sqrFromWire(u8 v)
{
    if (v > static_cast<u8>(SqrVariant::CHSqr3))
        fatal("wire: bad SqrVariant ", static_cast<int>(v));
    return static_cast<SqrVariant>(v);
}

CoordSystem
coordsFromWire(u8 v)
{
    if (v > static_cast<u8>(CoordSystem::Projective))
        fatal("wire: bad CoordSystem ", static_cast<int>(v));
    return static_cast<CoordSystem>(v);
}

TracePart
partFromWire(u8 v)
{
    if (v > static_cast<u8>(TracePart::FinalExpOnly))
        fatal("wire: bad TracePart ", static_cast<int>(v));
    return static_cast<TracePart>(v);
}

void
putVariants(WireWriter &w, const VariantConfig &cfg)
{
    w.u32v(static_cast<u32>(cfg.levels.size()));
    for (const auto &[degree, lv] : cfg.levels) {
        w.i32v(degree);
        w.u8v(static_cast<u8>(lv.mul));
        w.u8v(static_cast<u8>(lv.sqr));
    }
    w.u8v(static_cast<u8>(cfg.g2Coords));
    w.boolv(cfg.cyclotomicSqr);
}

VariantConfig
getVariants(WireReader &r)
{
    VariantConfig cfg;
    const u32 n = r.count(6); // i32 degree + two enum bytes
    for (u32 i = 0; i < n; ++i) {
        const i32 degree = r.i32v();
        LevelVariants lv;
        lv.mul = mulFromWire(r.u8v());
        lv.sqr = sqrFromWire(r.u8v());
        cfg.levels[degree] = lv;
    }
    cfg.g2Coords = coordsFromWire(r.u8v());
    cfg.cyclotomicSqr = r.boolv();
    return cfg;
}

void
putHw(WireWriter &w, const PipelineModel &hw)
{
    w.i32v(hw.longLat);
    w.i32v(hw.shortLat);
    w.i32v(hw.invLat);
    w.i32v(hw.issueWidth);
    w.i32v(hw.numLinUnits);
    w.i32v(hw.numBanks);
    w.i32v(hw.readsPerBank);
    w.i32v(hw.writesPerBank);
    w.boolv(hw.writebackFifo);
    w.i32v(hw.fifoDepth);
    w.f64v(hw.beta);
}

PipelineModel
getHw(WireReader &r)
{
    PipelineModel hw;
    hw.longLat = r.i32v();
    hw.shortLat = r.i32v();
    hw.invLat = r.i32v();
    hw.issueWidth = r.i32v();
    hw.numLinUnits = r.i32v();
    hw.numBanks = r.i32v();
    hw.readsPerBank = r.i32v();
    hw.writesPerBank = r.i32v();
    hw.writebackFifo = r.boolv();
    hw.fifoDepth = r.i32v();
    hw.beta = r.f64v();
    hw.validate(); // a zero width or bank count would SIGFPE a worker
    return hw;
}

} // namespace

void
putRequest(WireWriter &w, const DseRequest &req)
{
    w.str(req.label);
    w.i32v(req.cores);
    const CompileOptions &opt = req.opt;
    putVariants(w, opt.variants);
    putHw(w, opt.hw);
    w.boolv(opt.optimize);
    w.boolv(opt.listSchedule);
    w.u8v(static_cast<u8>(opt.part));
    w.u32v(static_cast<u32>(opt.passes.size()));
    for (const std::string &p : opt.passes)
        w.str(p);
    w.boolv(opt.useTraceCache);
    // jobs and dseWorkers are deliberately NOT serialized: a worker
    // evaluates a shipped group serially and never fans it out again.
}

DseRequest
getRequest(WireReader &r)
{
    DseRequest req;
    req.label = r.str();
    req.cores = r.i32v();
    if (req.cores < 1)
        fatal("wire: request cores must be >= 1, got ", req.cores);
    req.opt.variants = getVariants(r);
    req.opt.hw = getHw(r);
    req.opt.optimize = r.boolv();
    req.opt.listSchedule = r.boolv();
    req.opt.part = partFromWire(r.u8v());
    const u32 n = r.count(4); // u32 length per string
    for (u32 i = 0; i < n; ++i)
        req.opt.passes.push_back(r.str());
    req.opt.useTraceCache = r.boolv();
    return req;
}

void
putPoint(WireWriter &w, const DsePoint &p)
{
    w.str(p.label);
    putVariants(w, p.variants);
    putHw(w, p.hw);
    w.i32v(p.cores);
    w.u64v(p.instrs);
    w.u64v(p.mulInstrs);
    w.u64v(p.linInstrs);
    w.i64v(p.cycles);
    w.f64v(p.ipc);
    w.f64v(p.areaMm2);
    w.f64v(p.freqMHz);
    w.f64v(p.criticalPathNs);
    w.f64v(p.latencyUs);
    w.f64v(p.throughputOps);
    w.f64v(p.thptPerArea);
    w.f64v(p.compileSeconds);
    // Shared with the artifact cache (core/artifacts.h): a cached point
    // and a wire-shipped point round-trip through identical bytes.
    putOptStats(w, p.opt);
}

DsePoint
getPoint(WireReader &r)
{
    DsePoint p;
    p.label = r.str();
    p.variants = getVariants(r);
    p.hw = getHw(r);
    p.cores = r.i32v();
    p.instrs = r.u64v();
    p.mulInstrs = r.u64v();
    p.linInstrs = r.u64v();
    p.cycles = r.i64v();
    p.ipc = r.f64v();
    p.areaMm2 = r.f64v();
    p.freqMHz = r.f64v();
    p.criticalPathNs = r.f64v();
    p.latencyUs = r.f64v();
    p.throughputOps = r.f64v();
    p.thptPerArea = r.f64v();
    p.compileSeconds = r.f64v();
    p.opt = getOptStats(r);
    return p;
}

std::vector<u8>
encodeFrame(FrameType type, const std::vector<u8> &payload)
{
    FINESSE_CHECK(payload.size() <= kMaxPayload,
                  "frame payload too large: ", payload.size());
    WireWriter w;
    w.u32v(kMagic);
    w.u8v(static_cast<u8>(type));
    w.u32v(static_cast<u32>(payload.size()));
    std::vector<u8> out = w.take();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

bool
FrameBuffer::next(Frame &out)
{
    // Compact once the consumed prefix dominates the buffer.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    if (buf_.size() - pos_ < kHeaderBytes)
        return false;
    WireReader header(buf_.data() + pos_, kHeaderBytes);
    const u32 magic = header.u32v();
    if (magic != kMagic)
        fatal("wire: bad frame magic 0x", std::hex, magic);
    const u8 type = header.u8v();
    if (type < static_cast<u8>(FrameType::GroupRequest) ||
        type > static_cast<u8>(FrameType::Pong))
        fatal("wire: unknown frame type ", static_cast<int>(type));
    const u32 length = header.u32v();
    if (length > maxPayload_)
        fatal("wire: oversized frame payload ", length, " (cap ",
              maxPayload_, ")");
    if (buf_.size() - pos_ < kHeaderBytes + length)
        return false;
    out.type = static_cast<FrameType>(type);
    out.payload.assign(
        buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kHeaderBytes),
        buf_.begin() +
            static_cast<std::ptrdiff_t>(pos_ + kHeaderBytes + length));
    pos_ += kHeaderBytes + length;
    return true;
}

std::vector<u8>
encodeGroupRequest(const GroupRequest &msg)
{
    WireWriter w;
    w.str(msg.curve);
    w.u64v(msg.groupId);
    w.u32v(static_cast<u32>(msg.requests.size()));
    for (const DseRequest &req : msg.requests)
        putRequest(w, req);
    return encodeFrame(FrameType::GroupRequest, w.bytes());
}

GroupRequest
decodeGroupRequest(const std::vector<u8> &payload)
{
    WireReader r(payload);
    GroupRequest msg;
    msg.curve = r.str();
    msg.groupId = r.u64v();
    // No reserve from the untrusted count: memory grows only with
    // elements that actually decode (the count bound is a sanity
    // check; a lying count hits a truncation throw long before any
    // large allocation).
    const u32 n = r.count(kMinRequestBytes);
    for (u32 i = 0; i < n; ++i)
        msg.requests.push_back(getRequest(r));
    r.expectEnd();
    return msg;
}

std::vector<u8>
encodeGroupResult(const GroupResult &msg)
{
    WireWriter w;
    w.u64v(msg.groupId);
    w.u32v(static_cast<u32>(msg.points.size()));
    for (const DsePoint &p : msg.points)
        putPoint(w, p);
    return encodeFrame(FrameType::GroupResult, w.bytes());
}

GroupResult
decodeGroupResult(const std::vector<u8> &payload)
{
    WireReader r(payload);
    GroupResult msg;
    msg.groupId = r.u64v();
    const u32 n = r.count(kMinPointBytes);
    for (u32 i = 0; i < n; ++i)
        msg.points.push_back(getPoint(r));
    r.expectEnd();
    return msg;
}

std::vector<u8>
encodeWorkerError(const WorkerError &msg)
{
    WireWriter w;
    w.u64v(msg.groupId);
    w.str(msg.message);
    return encodeFrame(FrameType::WorkerError, w.bytes());
}

WorkerError
decodeWorkerError(const std::vector<u8> &payload)
{
    WireReader r(payload);
    WorkerError msg;
    msg.groupId = r.u64v();
    msg.message = r.str();
    r.expectEnd();
    return msg;
}

std::vector<u8>
encodeHello(const Hello &msg)
{
    WireWriter w;
    w.u32v(msg.version);
    w.u64v(msg.catalogHash);
    return encodeFrame(FrameType::Hello, w.bytes());
}

Hello
decodeHello(const std::vector<u8> &payload)
{
    WireReader r(payload);
    Hello msg;
    msg.version = r.u32v();
    msg.catalogHash = r.u64v();
    r.expectEnd();
    return msg;
}

std::vector<u8>
encodePing(const Ping &msg)
{
    WireWriter w;
    w.u64v(msg.seq);
    return encodeFrame(FrameType::Ping, w.bytes());
}

Ping
decodePing(const std::vector<u8> &payload)
{
    WireReader r(payload);
    Ping msg;
    msg.seq = r.u64v();
    r.expectEnd();
    return msg;
}

std::vector<u8>
encodePong(const Pong &msg)
{
    WireWriter w;
    w.u64v(msg.seq);
    return encodeFrame(FrameType::Pong, w.bytes());
}

Pong
decodePong(const std::vector<u8> &payload)
{
    WireReader r(payload);
    Pong msg;
    msg.seq = r.u64v();
    r.expectEnd();
    return msg;
}

} // namespace wire
} // namespace finesse
