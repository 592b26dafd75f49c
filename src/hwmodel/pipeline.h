/**
 * @file
 * Parameterized hardware pipeline model (Sec. 3.2/3.3 of the paper).
 * Describes instruction itineraries (Long/Short/Inv latencies), issue
 * width (VLIW), ALU counts, register-bank configuration and the
 * write-back ring buffer (FIFO). Consumed by the scheduler (as
 * constraints) and the cycle-accurate simulator (as timing ground
 * truth); the area/timing models translate the same parameters into
 * silicon estimates for the co-design loop.
 */
#ifndef FINESSE_HWMODEL_PIPELINE_H_
#define FINESSE_HWMODEL_PIPELINE_H_

#include <sstream>
#include <string>

#include "ir/ir.h"
#include "support/common.h"

namespace finesse {

/** Hardware pipeline parameters. */
struct PipelineModel
{
    // Itineraries (cycles).
    int longLat = 38;  ///< fully-pipelined modular multiplier depth
    int shortLat = 8;  ///< linear-unit depth
    int invLat = 900;  ///< iterative inversion unit latency

    // Issue/datapath shape.
    int issueWidth = 1;  ///< ops per VLIW bundle (1 = single issue)
    int numLinUnits = 1; ///< parallel linear (Short) units
    // Paper constraint: at most one mmul unit per core.

    // Register banks.
    int numBanks = 1;
    int readsPerBank = 2;
    int writesPerBank = 1;

    // Write-back ring buffer (the paper's HW2 feature, Table 7).
    bool writebackFifo = false;
    int fifoDepth = 8;

    // Issue-slot affinity tuning parameter (Sec. 3.5).
    double beta = 0.05;

    /** Latency of one op under this model. */
    int
    latency(Op op) const
    {
        switch (unitOf(op)) {
          case UnitClass::Linear:
            return shortLat;
          case UnitClass::Mul:
            return longLat;
          case UnitClass::Inv:
            return invLat;
          case UnitClass::None:
            return 1;
        }
        return 1;
    }

    /// Upper bounds: the port trackers allocate (max latency + FIFO
    /// depth) x banks counters, so an unbounded model is a huge
    /// allocation. Far above any model the paper or the tree uses.
    static constexpr int kMaxLatency = 4096; ///< cycles, incl. FIFO depth
    static constexpr int kMaxUnits = 64;     ///< width, units, banks, ports

    /**
     * Validate the paper's structural constraints and the value
     * bounds every stage relies on (a zero width or bank count would
     * divide by zero). Messages name the config keys (core/options.h).
     */
    void
    validate() const
    {
        FINESSE_REQUIRE(shortLat >= 1, "hw.short_lat must be >= 1");
        FINESSE_REQUIRE(shortLat <= kMaxLatency,
                        "hw.short_lat must be <= ", kMaxLatency);
        FINESSE_REQUIRE(longLat > shortLat,
                        "hw.long_lat must exceed hw.short_lat");
        FINESSE_REQUIRE(longLat <= kMaxLatency,
                        "hw.long_lat must be <= ", kMaxLatency);
        FINESSE_REQUIRE(invLat >= 1, "hw.inv_lat must be >= 1");
        FINESSE_REQUIRE(invLat <= kMaxLatency,
                        "hw.inv_lat must be <= ", kMaxLatency);
        FINESSE_REQUIRE(issueWidth >= 1, "hw.issue_width must be >= 1");
        FINESSE_REQUIRE(issueWidth <= kMaxUnits,
                        "hw.issue_width must be <= ", kMaxUnits);
        FINESSE_REQUIRE(numLinUnits >= 1, "hw.lin_units must be >= 1");
        FINESSE_REQUIRE(numLinUnits <= kMaxUnits,
                        "hw.lin_units must be <= ", kMaxUnits);
        FINESSE_REQUIRE(numBanks >= issueWidth,
                        "hw.banks must be >= hw.issue_width");
        FINESSE_REQUIRE(numBanks <= kMaxUnits,
                        "hw.banks must be <= ", kMaxUnits);
        FINESSE_REQUIRE(readsPerBank >= 2 && writesPerBank >= 1,
                        "banks must support 2R1W per cycle");
        FINESSE_REQUIRE(readsPerBank <= kMaxUnits &&
                            writesPerBank <= kMaxUnits,
                        "bank read/write ports must be <= ", kMaxUnits);
        FINESSE_REQUIRE(!writebackFifo || fifoDepth >= 1,
                        "hw.fifo_depth must be >= 1 when hw.fifo is on");
        FINESSE_REQUIRE(fifoDepth <= kMaxLatency,
                        "hw.fifo_depth must be <= ", kMaxLatency);
        FINESSE_REQUIRE(issueWidth == 1 || writebackFifo,
                        "VLIW architectures require write-back FIFOs "
                        "(hw.fifo)");
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "L=" << longLat << ",S=" << shortLat << ",W=" << issueWidth
           << ",#Lin=" << numLinUnits << ",banks=" << numBanks
           << (writebackFifo ? ",fifo" : "");
        return os.str();
    }

    /** The paper's default evaluation model: Long=38, Short=8, 2R1W. */
    static PipelineModel
    paperDefault()
    {
        return PipelineModel{};
    }
};

} // namespace finesse

#endif // FINESSE_HWMODEL_PIPELINE_H_
