/**
 * @file
 * Artifact codec implementation. Trace payload layout:
 *
 *     u32 magic 'FTRC', u32 codec version
 *     BigInt p; i32 numValues
 *     u32 instCount; (u8 op, i32 dst, i32 a, i32 b) each
 *     u32 inputCount; i32 each
 *     u32 outputCount; i32 each
 *     u32 constCount; (i32 id, BigInt value) each
 *     OptStats (same encoding the DsePoint codec, dse/wire.h, uses)
 *
 * Decoding validates as it reads (op bytes range-checked, counts
 * bounded by remaining payload, exact-consumption check at the end)
 * and never throws across the API boundary: any malformed input --
 * which the DiskCache checksum already makes rare -- warns loudly and
 * returns false so the caller re-traces.
 */
#include "core/artifacts.h"

#include <cstdio>

#include "curve/catalog.h"

namespace finesse {

namespace {

constexpr u32 kTraceMagic = 0x43525446u; // "FTRC" little-endian

} // namespace

u64
artifactFingerprint()
{
    // Same FNV-1a step the catalog hash itself uses; folding the
    // codec version keeps old-layout entries unreachable after a bump.
    u64 h = catalogHash();
    h ^= kArtifactCodecVersion;
    h *= 1099511628211ull;
    return h;
}

std::string
traceArtifactKey(const std::string &traceKey)
{
    char fp[2 * 8 + 1];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(artifactFingerprint()));
    return "trace|" + std::string(fp) + "|" + traceKey;
}

void
putBigInt(ByteWriter &w, const BigInt &v)
{
    w.boolv(v.isNegative());
    const size_t n = v.limbCount();
    w.u32v(static_cast<u32>(n));
    for (size_t i = 0; i < n; ++i)
        w.u64v(v.limb(i));
}

BigInt
getBigInt(ByteReader &r)
{
    const bool negative = r.boolv();
    const u32 n = r.count(8);
    std::vector<u64> limbs(n);
    for (u32 i = 0; i < n; ++i)
        limbs[i] = r.u64v();
    BigInt v = BigInt::fromLimbs(limbs.data(), limbs.size());
    return negative ? -v : v;
}

void
putOptStats(ByteWriter &w, const OptStats &s)
{
    w.u64v(s.instrsBefore);
    w.u64v(s.instrsAfter);
    w.i32v(s.iterations);
    w.f64v(s.seconds);
    w.u32v(static_cast<u32>(s.passes.size()));
    for (const PassStats &ps : s.passes) {
        w.str(ps.name);
        w.i32v(ps.invocations);
        w.i64v(ps.instrsRemoved);
        w.f64v(ps.seconds);
        w.boolv(ps.frontend);
    }
}

OptStats
getOptStats(ByteReader &r)
{
    OptStats s;
    s.instrsBefore = r.u64v();
    s.instrsAfter = r.u64v();
    s.iterations = r.i32v();
    s.seconds = r.f64v();
    const u32 n = r.count(4 + 4 + 8 + 8 + 1); // minimal PassStats
    for (u32 i = 0; i < n; ++i) {
        PassStats ps;
        ps.name = r.str();
        ps.invocations = r.i32v();
        ps.instrsRemoved = r.i64v();
        ps.seconds = r.f64v();
        ps.frontend = r.boolv();
        s.passes.push_back(std::move(ps));
    }
    return s;
}

std::vector<u8>
encodeTraceArtifact(const Module &m, const OptStats &stats)
{
    ByteWriter w;
    w.u32v(kTraceMagic);
    w.u32v(kArtifactCodecVersion);
    putBigInt(w, m.p);
    w.i32v(m.numValues);
    w.u32v(static_cast<u32>(m.body.size()));
    for (const Inst &inst : m.body) {
        w.u8v(static_cast<u8>(inst.op));
        w.i32v(inst.dst);
        w.i32v(inst.a);
        w.i32v(inst.b);
    }
    w.u32v(static_cast<u32>(m.inputs.size()));
    for (i32 id : m.inputs)
        w.i32v(id);
    w.u32v(static_cast<u32>(m.outputs.size()));
    for (i32 id : m.outputs)
        w.i32v(id);
    w.u32v(static_cast<u32>(m.constants.size()));
    for (const ConstEntry &c : m.constants) {
        w.i32v(c.id);
        putBigInt(w, c.value);
    }
    putOptStats(w, stats);
    return w.take();
}

bool
decodeTraceArtifact(const std::vector<u8> &bytes, Module &m,
                    OptStats &stats)
{
    try {
        ByteReader r(bytes);
        if (r.u32v() != kTraceMagic)
            fatal("trace artifact: bad magic");
        if (r.u32v() != kArtifactCodecVersion)
            fatal("trace artifact: codec version mismatch");
        Module out;
        out.p = getBigInt(r);
        out.numValues = r.i32v();
        const u32 instCount = r.count(1 + 4 + 4 + 4);
        out.body.reserve(instCount);
        for (u32 i = 0; i < instCount; ++i) {
            Inst inst;
            const u8 op = r.u8v();
            if (op > static_cast<u8>(Op::Icv))
                fatal("trace artifact: bad op byte ",
                      static_cast<int>(op));
            inst.op = static_cast<Op>(op);
            inst.dst = r.i32v();
            inst.a = r.i32v();
            inst.b = r.i32v();
            out.body.push_back(inst);
        }
        const u32 inCount = r.count(4);
        for (u32 i = 0; i < inCount; ++i)
            out.inputs.push_back(r.i32v());
        const u32 outCount = r.count(4);
        for (u32 i = 0; i < outCount; ++i)
            out.outputs.push_back(r.i32v());
        const u32 constCount = r.count(4 + 1 + 4);
        for (u32 i = 0; i < constCount; ++i) {
            ConstEntry c;
            c.id = r.i32v();
            c.value = getBigInt(r);
            out.constants.push_back(std::move(c));
        }
        stats = getOptStats(r);
        r.expectEnd();
        m = std::move(out);
        return true;
    } catch (const FatalError &e) {
        std::fprintf(stderr,
                     "finesse: discarding undecodable trace artifact "
                     "(%s)\n",
                     e.what());
        return false;
    }
}

} // namespace finesse
