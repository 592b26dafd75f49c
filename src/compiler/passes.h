/**
 * @file
 * IROpt: SSA data-flow optimization passes (Sec. 3.5, "IROpt").
 *  - constant propagation / folding (with the Frobenius constant tables
 *    already interned by CodeGen),
 *  - zero/one propagation, which folds the structural zeros and ones
 *    the trace starts from (Table 7 discussion); line sparsity is
 *    already in the trace, as the engine multiplies lines sparsely,
 *  - strength reduction (mul-by-small-constant -> DBL/TPL/NEG,
 *    mul(a, a) -> SQR),
 *  - global value numbering using commutativity on finite fields,
 *  - dead code elimination.
 *
 * Each optimization is a discrete Pass (see compiler/pipeline.h) that
 * the PassManager iterates to a fixpoint. These are the only passes:
 * the backend is a fixed stage sequence (compiler/backendprep.h) that
 * reports one PassStats row per stage. This header holds the per-pass
 * and aggregate statistics (Table 7) plus the classic one-call entry
 * point.
 */
#ifndef FINESSE_COMPILER_PASSES_H_
#define FINESSE_COMPILER_PASSES_H_

#include <string>
#include <string_view>
#include <vector>

#include "ir/ir.h"

namespace finesse {

/** Per-pass accounting: one row per IROpt pass or backend stage. */
struct PassStats
{
    std::string name;
    int invocations = 0;       ///< times the pass ran (fixpoint sweeps)
    i64 instrsRemoved = 0;     ///< total instruction delta across sweeps
    double seconds = 0.0;      ///< wall time spent inside the pass
    bool frontend = true;      ///< IROpt pass vs backend stage
};

/** Result counters for reporting (Table 7). */
struct OptStats
{
    size_t instrsBefore = 0;
    size_t instrsAfter = 0;
    int iterations = 0;        ///< front-end fixpoint sweeps
    double seconds = 0.0;      ///< wall time across all passes
    std::vector<PassStats> passes; ///< pipeline order, front end first

    double
    reductionPct() const
    {
        if (instrsBefore == 0)
            return 0.0;
        return 100.0 *
               (static_cast<double>(instrsBefore) -
                static_cast<double>(instrsAfter)) /
               static_cast<double>(instrsBefore);
    }

    /** Share of the input program removed by one named pass. */
    double
    passReductionPct(std::string_view name) const
    {
        const PassStats *ps = pass(name);
        if (!ps || instrsBefore == 0)
            return 0.0;
        return 100.0 * static_cast<double>(ps->instrsRemoved) /
               static_cast<double>(instrsBefore);
    }

    /** Stats entry for a named pass, nullptr when it never ran. */
    const PassStats *
    pass(std::string_view name) const
    {
        for (const PassStats &ps : passes) {
            if (ps.name == name)
                return &ps;
        }
        return nullptr;
    }

    /** Sum of per-pass instruction deltas (== before - after). */
    i64
    totalRemoved() const
    {
        i64 sum = 0;
        for (const PassStats &ps : passes)
            sum += ps.instrsRemoved;
        return sum;
    }
};

/**
 * Run the full IROpt pipeline in place (ConstFold, ZeroOneProp,
 * StrengthReduce, GVN, DCE iterated to a fixpoint). Equivalent to
 * running the standard front-end PassManager of compiler/pipeline.h.
 */
OptStats optimizeModule(Module &m);

} // namespace finesse

#endif // FINESSE_COMPILER_PASSES_H_
