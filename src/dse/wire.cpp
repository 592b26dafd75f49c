/**
 * @file
 * Point codec implementation. Every decoder validates as it reads:
 * enum bytes are range-checked and element counts are bounded by the
 * bytes actually present.
 */
#include "dse/wire.h"

#include "core/artifacts.h"

namespace finesse {
namespace wire {

namespace {

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

void
putVariants(ByteWriter &w, const VariantConfig &cfg)
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
getVariants(ByteReader &r)
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
putHw(ByteWriter &w, const PipelineModel &hw)
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
getHw(ByteReader &r)
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
    hw.validate(); // a zero width or bank count would SIGFPE the simulator
    return hw;
}

} // namespace

void
putPoint(ByteWriter &w, const DsePoint &p)
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
    putOptStats(w, p.opt);
}

DsePoint
getPoint(ByteReader &r)
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

} // namespace wire
} // namespace finesse
