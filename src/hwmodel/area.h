/**
 * @file
 * Analytic area and timing models for the Finesse hardware architecture
 * (Sec. 3.3). Substitutes for the paper's EDA synthesis feedback in the
 * co-design loop: the loop only consumes scalar (area, critical-path)
 * estimates per configuration, so an analytic model anchored to the
 * paper's published numbers exercises the identical feedback path.
 *
 * Anchors (40 nm LP, from the paper):
 *  - 1-core BN254N: 1.77 mm^2, breakdown IMem 50% / ALU 35% / DMem 15%,
 *    mmul = 89% of the ALU (Fig. 6);
 *  - 8-core: 8.00 mm^2 with shared IMem at 11% (Fig. 6b, Table 6);
 *  - f = 769 MHz at Long = 38 stages (Table 6), critical path floors
 *    for deeper pipelines (Fig. 11);
 *  - 40 nm -> 65 nm scaling: freq x0.55, area x1.5 (Table 6 footnote,
 *    Stillmaker-Baas-style equivalent scaling).
 */
#ifndef FINESSE_HWMODEL_AREA_H_
#define FINESSE_HWMODEL_AREA_H_

#include <algorithm>
#include <cmath>
#include <string>

#include "hwmodel/pipeline.h"

namespace finesse {

/** Technology node for reporting. */
enum class TechNode { N40LP, N65 };

/** Area breakdown of one accelerator configuration (mm^2). */
struct AreaReport
{
    int cores = 1;
    double mmulArea = 0;   ///< per-core modular multiplier
    double aluOther = 0;   ///< per-core linear + inversion units
    double dmemArea = 0;   ///< per-core data memory
    double imemArea = 0;   ///< shared instruction memory
    double otherArea = 0;  ///< control/interconnect margin
    double totalArea = 0;

    double aluArea() const { return mmulArea + aluOther; }
    double pctImem() const { return 100.0 * imemArea / totalArea; }
    double
    pctAlu() const
    {
        return 100.0 * cores * aluArea() / totalArea;
    }
    double
    pctDmem() const
    {
        return 100.0 * cores * dmemArea / totalArea;
    }

    std::string describe() const;
};

/** Configuration inputs for the area/timing models. */
struct DesignPoint
{
    int fpBits = 254;        ///< data width
    int longDepth = 38;      ///< mmul pipeline depth
    int numLinUnits = 1;
    int cores = 1;
    size_t imemBits = 0;     ///< encoded binary size
    size_t dmemWords = 0;    ///< max active registers (all banks)
    int numBanks = 1;
};

/**
 * Analytic area model (Karatsuba-Wallace multiplier recursion + SRAM
 * macros + per-unit logic). All constants are documented calibration
 * values; see file header.
 */
class AreaModel
{
  public:
    /** Leaf multiplier width W (DSP/multiplier-IP granularity). */
    static constexpr int kLeafW = 16;

    // Calibration constants (40 nm LP).
    static constexpr double kNand2Um2 = 0.80;     ///< gate area
    static constexpr double kDspGates = 900;      ///< W x W multiplier
    static constexpr double kWallaceOverhead = 1.10;
    static constexpr double kImemBitUm2 = 0.42;   ///< SRAM incl. periphery
    static constexpr double kDmemBitUm2 = 2.2;    ///< multi-ported RF bit
    static constexpr double kFlopUm2 = 2.4;       ///< pipeline register
    static constexpr double kAdderGatesPerBit = 11.0;
    static constexpr double kKaratsubaAdderOverhead = 0.17; ///< per level
    static constexpr double kControlMargin = 0.03; ///< share of core

    /** mmul area in mm^2 for a given width/depth. */
    double mmulArea(int bits, int depth) const;

    /** Linear + inversion units (per linear-unit count). */
    double aluOtherArea(int bits, int numLinUnits) const;

    /** SRAM area in mm^2 for a bit count. */
    double sramArea(size_t bits) const;

    /** Full report for a design point. */
    AreaReport report(const DesignPoint &dp) const;
};

/** Critical-path / frequency model (Fig. 11). */
class TimingModel
{
  public:
    // 40 nm LP calibration. The work constant places the critical-path
    // knee (where per-stage work meets the wire/setup floor) at depth
    // ~38 for 254-bit multipliers, matching Fig. 11.
    static constexpr double kWorkNsPerLog2Bit = 1.29; ///< mult tree work
    static constexpr double kFloorNs = 1.15;          ///< wire/setup floor
    static constexpr double kMarginNs = 0.10;

    /** Critical path (ns) of the mmul at a given pipeline depth. */
    double
    criticalPathNs(int bits, int depth) const
    {
        const double work =
            kWorkNsPerLog2Bit * std::log2(static_cast<double>(bits)) *
            std::log2(static_cast<double>(bits)) / 2.0;
        const double perStage = work / std::max(depth - 2, 1);
        return std::max(perStage, kFloorNs) + kMarginNs;
    }

    /** Achievable frequency in MHz. */
    double
    frequencyMHz(int bits, int depth) const
    {
        return 1e3 / criticalPathNs(bits, depth);
    }
};

/**
 * FPGA resource model (Xilinx Virtex-7 calibration): logic maps to
 * slices, memories to BRAM, and achievable frequency is a fixed
 * fraction of the ASIC frequency. Calibrated so the BN254N single-core
 * design lands near the paper's 13,928 slices / 153.8 MHz (Table 6).
 */
struct FpgaModel
{
    static constexpr double kGatesPerSlice = 54.0;
    static constexpr double kFreqRatioVsAsic = 0.20;

    /** Occupied slices (logic only; memories map to BRAM). */
    static double
    slices(const AreaReport &r)
    {
        const double logicMm2 =
            r.cores * (r.mmulArea + r.aluOther) + r.otherArea;
        return logicMm2 * 1e6 / AreaModel::kNand2Um2 / kGatesPerSlice;
    }

    static double
    frequencyMHz(int bits, int depth)
    {
        return TimingModel().frequencyMHz(bits, depth) *
               kFreqRatioVsAsic;
    }
};

/** Technology scaling factors (paper's Table 6 normalization). */
struct TechScale
{
    static constexpr double kFreq40to65 = 0.55;
    static constexpr double kArea40to65 = 1.50;

    static double
    scaleFreq(double mhz, TechNode from, TechNode to)
    {
        if (from == to)
            return mhz;
        return from == TechNode::N40LP ? mhz * kFreq40to65
                                       : mhz / kFreq40to65;
    }

    static double
    scaleArea(double mm2, TechNode from, TechNode to)
    {
        if (from == to)
            return mm2;
        return from == TechNode::N40LP ? mm2 * kArea40to65
                                       : mm2 / kArea40to65;
    }
};

/**
 * Table 6 headline ratios of one design against the published
 * baselines: its 1-core FPGA mapping against FlexiPair [17] (Virtex-7,
 * 70.7 ops/s, 0.028 ops/slice), and its 8-core ASIC at 65 nm
 * equivalent against Ikeda et al. [10] (17.8 kops/s, 1.39 kops/mm^2).
 */
struct Table6Ratios
{
    double flexiPairThpt = 0;
    double flexiPairOpsPerSlice = 0;
    double ikedaThpt = 0;
    double ikedaKopsPerMm2 = 0;
};

/**
 * The ratios for a pairing of @p cycles cycles on a @p fpBits-bit
 * datapath with a @p longDepth-stage multiplier; @p oneCore and
 * @p eightCore are its 40 nm LP area reports.
 */
Table6Ratios table6Ratios(int fpBits, int longDepth, double cycles,
                          const AreaReport &oneCore,
                          const AreaReport &eightCore);

} // namespace finesse

#endif // FINESSE_HWMODEL_AREA_H_
