/**
 * @file
 * Compiler backend artifacts (Sec. 3.5) and the compiled-program
 * container. The stage functions that compile and sweep both run live
 * in compiler/backendprep.h; their reference oracles live with the
 * tests (tests/oracles/).
 */
#ifndef FINESSE_COMPILER_BACKEND_H_
#define FINESSE_COMPILER_BACKEND_H_

#include <vector>

#include "hwmodel/pipeline.h"
#include "ir/ir.h"

namespace finesse {

/** Value -> register bank assignment. */
struct BankAssignment
{
    std::vector<i32> bankOf; ///< per value id
    int numBanks = 1;

    bool operator==(const BankAssignment &) const = default;
};

/** One issue slot: up to issueWidth instruction indexes. */
struct Bundle
{
    std::vector<i32> instIdx; ///< indexes into Module::body

    bool operator==(const Bundle &) const = default;
};

/** Static schedule: ordered bundles plus estimated timing. */
struct Schedule
{
    std::vector<Bundle> bundles;
    std::vector<i64> issueCycle;   ///< per body index, scheduler estimate
    i64 estimatedCycles = 0;       ///< completion estimate
    size_t numInstrs = 0;

    bool operator==(const Schedule &) const = default;
};

/** Register assignment within banks. */
struct RegAssignment
{
    std::vector<i32> regOf;          ///< per value id (index within bank)
    std::vector<i32> maxRegsPerBank; ///< high-water mark per bank

    i32
    maxRegs() const
    {
        i32 m = 0;
        for (i32 v : maxRegsPerBank)
            m = std::max(m, v);
        return m;
    }

    bool operator==(const RegAssignment &) const = default;
};

/** Everything the encoder/simulators need about one compilation. */
struct CompiledProgram
{
    Module module;
    BankAssignment banks;
    Schedule schedule;
    RegAssignment regs;
    PipelineModel hw;
};

} // namespace finesse

#endif // FINESSE_COMPILER_BACKEND_H_
