/**
 * @file
 * The IROpt front end as a staged pipeline: a PassManager that
 * iterates named Pass objects over a Module to a fixpoint, keeping
 * the per-pass accounting (OptStats) itself.
 *
 * The front end is five discrete passes -- constfold, zerooneprop,
 * strengthreduce, gvn, dce -- so any subset is composable (ablation
 * studies, Table 7 per-pass attribution). The backend is not made of
 * passes: BankAlloc -> PackSched -> RegAlloc -> ASM/Link is one fixed
 * sequence (runBackendPoint, compiler/backendprep.h) that compile and
 * the DSE sweep both run.
 */
#ifndef FINESSE_COMPILER_PIPELINE_H_
#define FINESSE_COMPILER_PIPELINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/passes.h"

namespace finesse {

class InstRewriter; // worklist hook of the front-end passes (optcontext.h)

/** One named IROpt pass. */
class Pass
{
  public:
    virtual ~Pass() = default;

    virtual std::string_view name() const = 0;

    /**
     * Run one full sweep over @p m in place; returns true when
     * anything changed. This is the reference sweep engine (the
     * worklist engine drives instRewriter() instead).
     */
    virtual bool run(Module &m) = 0;

    /**
     * Worklist hook for the single-build OptContext engine. Non-null
     * for every rewriting pass; null for dce (which the engine
     * implements natively on its use-count table).
     */
    virtual InstRewriter *instRewriter() { return nullptr; }
};

/**
 * The IROpt fixpoint loop: the pipeline's passes are iterated as
 * one group (up to kMaxFixpointIters rounds) until no pass reports a
 * change. Each invocation records instruction deltas, round counts
 * and wall time into the caller's OptStats.
 *
 * run() uses the single-build OptContext worklist engine
 * (compiler/optcontext.h): one shared use-count / replacement /
 * constant-pool build per run, with per-round scans visiting only
 * instructions whose operands changed. runSweep() drives the legacy
 * whole-body sweep engine instead -- the reference implementation
 * the worklist engine is benchmarked and byte-identity-tested
 * against.
 */
class PassManager
{
  public:
    static constexpr int kMaxFixpointIters = 8;

    PassManager &add(std::unique_ptr<Pass> pass);
    PassManager &add(const std::string &name); ///< by registry name

    size_t size() const { return passes_.size(); }
    std::vector<std::string> names() const;

    /** Run the pipeline over @p m (worklist engine). */
    void run(Module &m, OptStats &stats);

    /** Run with the legacy per-sweep front-end engine (reference). */
    void runSweep(Module &m, OptStats &stats);

    /** The five IROpt passes in canonical order. */
    static PassManager standardFrontend();
    /** Arbitrary pipeline; fatal() on an unknown pass name. */
    static PassManager fromNames(const std::vector<std::string> &names);

  private:
    bool invoke(Pass &pass, Module &m, OptStats &stats);

    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Canonical front-end pass names, pipeline order. */
const std::vector<std::string> &frontendPassNames();
/** True if @p name is a registered front-end pass. */
bool isFrontendPassName(const std::string &name);

/** Construct a front-end pass by name (nullptr if unknown). */
std::unique_ptr<Pass> makeFrontendPass(const std::string &name);
/** Construct a registered pass; fatal() on an unknown name. */
std::unique_ptr<Pass> makePass(const std::string &name);

/**
 * Parse a comma-separated pass list ("constfold,gvn,dce"); validates
 * every name against the registry. Empty input -> empty list (which
 * callers treat as "the standard pipeline").
 */
std::vector<std::string> parsePassList(const std::string &csv);

/**
 * Run a front-end pipeline over @p m in place and return its stats
 * (aggregate counters plus one PassStats per named pass). An empty
 * @p names runs nothing but still fills the aggregate counters.
 */
OptStats runFrontendPipeline(Module &m,
                             const std::vector<std::string> &names);

/**
 * Same pipeline on the legacy sweep-until-fixpoint engine: every
 * sweep of every pass re-walks the whole body and rebuilds the
 * constant-pool maps. Kept as the reference implementation --
 * bench/fig_opt and tests/test_optcontext check the worklist engine
 * produces byte-identical modules and matching per-pass stats.
 */
OptStats runFrontendPipelineSweep(Module &m,
                                  const std::vector<std::string> &names);

/**
 * Find-or-append the PassStats entry for @p name in @p stats
 * (first-invocation order, the order the pipeline reports).
 * The reference is invalidated by the next ensurePassStats call.
 */
PassStats &ensurePassStats(OptStats &stats, std::string_view name,
                           bool frontend);

} // namespace finesse

#endif // FINESSE_COMPILER_PIPELINE_H_
