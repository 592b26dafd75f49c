/**
 * @file
 * Area model implementation (Karatsuba-Wallace multiplier recursion).
 */
#include "hwmodel/area.h"

#include <cmath>
#include <sstream>

namespace finesse {

std::string
AreaReport::describe() const
{
    std::ostringstream os;
    os.precision(3);
    os << cores << "-core, " << totalArea << " mm^2 (IMem "
       << pctImem() << "%, ALU " << pctAlu() << "%, DMem " << pctDmem()
       << "%)";
    return os.str();
}

double
AreaModel::mmulArea(int bits, int depth) const
{
    // Karatsuba levels n: smallest n with bits <= 5W * 2^n (the paper's
    // Wallace base units cover [2W, 5W]).
    int n = 0;
    while (bits > 5 * kLeafW * (1 << n))
        ++n;
    const int leafBits = (bits + (1 << n) - 1) >> n;
    const int leafDsps = (leafBits + kLeafW - 1) / kLeafW;
    // Wallace-tree leaf: leafDsps^2 partial products plus compressors.
    const double leafGates =
        leafDsps * leafDsps * kDspGates * kWallaceOverhead;
    double multGates = std::pow(3.0, n) * leafGates;
    multGates *= 1.0 + kKaratsubaAdderOverhead * n;
    // Montgomery: three multiplier instances (operand product + two
    // reduction products, Fig. 5c) + accumulators.
    double gates = 3.0 * multGates + 2.0 * bits * kAdderGatesPerBit;
    double um2 = gates * kNand2Um2;
    // Pipeline registers: ~2*bits flops per stage.
    um2 += static_cast<double>(depth) * 2.0 * bits * kFlopUm2;
    return um2 * 1e-6;
}

double
AreaModel::aluOtherArea(int bits, int numLinUnits) const
{
    // Per linear unit: adder/subtractor/doubler datapath + staging.
    const double linUm2 =
        bits * kAdderGatesPerBit * 3.0 * kNand2Um2 + 8 * bits * kFlopUm2;
    // Inversion unit: iterative, a few adder widths + control.
    const double invUm2 =
        bits * kAdderGatesPerBit * 6.0 * kNand2Um2 + 4 * bits * kFlopUm2;
    return (numLinUnits * linUm2 + invUm2) * 1e-6;
}

double
AreaModel::sramArea(size_t bits) const
{
    return static_cast<double>(bits) * kImemBitUm2 * 1e-6;
}

AreaReport
AreaModel::report(const DesignPoint &dp) const
{
    AreaReport r;
    r.cores = dp.cores;
    r.mmulArea = mmulArea(dp.fpBits, dp.longDepth);
    r.aluOther = aluOtherArea(dp.fpBits, dp.numLinUnits);
    // DMem: three-stage pipelined SRAM (Fig. 5b) -> small fixed
    // register overhead on top of the macro bits.
    const size_t dmemBits = dp.dmemWords * static_cast<size_t>(dp.fpBits);
    r.dmemArea =
        static_cast<double>(dmemBits) * kDmemBitUm2 * 1e-6 * 1.12;
    r.imemArea = sramArea(dp.imemBits) * 1.06;
    const double coreArea = r.mmulArea + r.aluOther + r.dmemArea;
    r.otherArea = (dp.cores * coreArea + r.imemArea) * kControlMargin;
    r.totalArea = dp.cores * coreArea + r.imemArea + r.otherArea;
    return r;
}

Table6Ratios
table6Ratios(int fpBits, int longDepth, double cycles,
             const AreaReport &oneCore, const AreaReport &eightCore)
{
    const double fpgaOps =
        FpgaModel::frequencyMHz(fpBits, longDepth) * 1e6 / cycles;
    const double mhz65 =
        TechScale::scaleFreq(TimingModel().frequencyMHz(fpBits, longDepth),
                             TechNode::N40LP, TechNode::N65);
    const double area65 = TechScale::scaleArea(
        eightCore.totalArea, TechNode::N40LP, TechNode::N65);
    const double kops65 = 8 * mhz65 * 1e3 / cycles;

    Table6Ratios r;
    r.flexiPairThpt = fpgaOps / 70.7;
    r.flexiPairOpsPerSlice = fpgaOps / FpgaModel::slices(oneCore) / 0.028;
    r.ikedaThpt = kops65 / 17.8;
    r.ikedaKopsPerMm2 = kops65 / area65 / 1.39;
    return r;
}

} // namespace finesse
