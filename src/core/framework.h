/**
 * @file
 * finesse::Framework - the public facade of the design framework.
 *
 * One Framework instance corresponds to one curve. It drives the full
 * agile flow of the paper: CodeGen (trace) -> IROpt -> BankAlloc ->
 * PackSched -> RegAlloc -> ASM/Link (encode), plus functional
 * cross-validation against the native library and cycle-accurate /
 * area / timing evaluation for the co-design loop.
 *
 * The curve dispatch is type-erased here so that the compiler,
 * simulators, DSE and every benchmark can iterate over all catalog
 * curves uniformly.
 */
#ifndef FINESSE_CORE_FRAMEWORK_H_
#define FINESSE_CORE_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "compiler/backend.h"
#include "compiler/passes.h"
#include "compiler/pipeline.h"
#include "hwmodel/area.h"
#include "isa/encode.h"
#include "pairing/plan.h"
#include "sim/cycle.h"
#include "support/rng.h"

namespace finesse {

/** Options for one compilation (one point in the design space). */
struct CompileOptions
{
    VariantConfig variants;
    PipelineModel hw;
    bool optimize = true;     ///< run IROpt passes
    bool listSchedule = true; ///< Algorithm 2 vs program order ("Init")
    TracePart part = TracePart::Full;

    /**
     * IROpt pass pipeline (see compiler/pipeline.h), for ablation.
     * Empty = the standard front end; `optimize = false` disables it.
     * Only front-end names are valid: the backend always runs all
     * four stages.
     */
    std::vector<std::string> passes;

    /**
     * Reuse the process-wide front-end trace cache keyed by (curve,
     * variants, part, front-end pipeline): a traced + optimized module
     * is computed once and cloned for each hardware point. In a
     * sweep, a group of same-key requests traces uncached if any of
     * them sets this to false.
     */
    bool useTraceCache = true;

    /**
     * Worker threads for design-space sweeps (Explorer::evaluateAll
     * and the parallel exploreVariants path). 0 = hardware
     * concurrency, 1 = serial. Does not affect a single compile() and
     * is not part of the trace-cache key.
     */
    int jobs = 0;

    /**
     * Front-end pass names implied by these options. Fatal on an
     * unregistered name: a typo'd programmatic list must not silently
     * fall back to the standard pipeline.
     */
    std::vector<std::string>
    frontendPasses() const
    {
        for (const std::string &n : passes) {
            if (!isFrontendPassName(n))
                makePass(n); // fatal() with the known-pass list
        }
        if (!optimize)
            return {};
        return passes.empty() ? frontendPassNames() : passes;
    }
};

/** Everything produced by one compilation. */
struct CompileResult
{
    CompiledProgram prog;
    OptStats opt;
    EncodedProgram binary;
    double compileSeconds = 0.0;

    size_t instrs() const { return prog.module.size(); }
};

/** Functional-validation outcome (simulator vs native library). */
struct ValidationReport
{
    int vectors = 0;
    int moduleMatches = 0;    ///< SSA-level simulation matches
    int allocatedMatches = 0; ///< post-RegAlloc register-file matches

    bool
    allPassed() const
    {
        return moduleMatches == vectors && allocatedMatches == vectors;
    }
};

/** Type-erased per-curve operations. */
class ICurveHandle
{
  public:
    virtual ~ICurveHandle() = default;

    virtual const CurveInfo &info() const = 0;
    virtual const PairingPlan &plan() const = 0;

    /** Trace + optimize + schedule + allocate + encode. */
    virtual CompileResult compile(const CompileOptions &opt) const = 0;

    /** CodeGen + IROpt only (front end). */
    virtual Module trace(const VariantConfig &variants, TracePart part,
                         bool optimize) const = 0;

    /** Random valid pairing inputs in the module I/O convention. */
    virtual std::vector<BigInt> sampleInputs(Rng &rng,
                                             TracePart part) const = 0;

    /**
     * @p n input sets drawn from the same RNG stream as @p n
     * successive sampleInputs calls (identical vectors), but with the
     * per-point Jacobian-to-affine conversions folded into one batch
     * inversion (Montgomery's trick): 2n field inversions become 2.
     * Validation input generation is the heaviest non-compile part of
     * a sweep's cross-check, and inversion dominates it.
     */
    virtual std::vector<std::vector<BigInt>>
    sampleInputsBatch(Rng &rng, TracePart part, int n) const
    {
        std::vector<std::vector<BigInt>> out;
        out.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            out.push_back(sampleInputs(rng, part));
        return out;
    }

    /** Reference computation in the module I/O convention. */
    virtual std::vector<BigInt>
    nativeReference(const std::vector<BigInt> &inputs,
                    TracePart part) const = 0;
};

/** Shared, cached handle for a catalog curve. */
const ICurveHandle &curveHandle(const std::string &name);

/**
 * Back end only: BankAlloc + PackSched + RegAlloc + encode a traced
 * module for one hardware model. Runs runBackendPoint
 * (compiler/backendprep.h), the function every sweep point runs, then
 * encodes the binary; the result's stats carry the four backend stage
 * rows.
 */
CompileResult runBackend(Module module, const PipelineModel &hw,
                         bool listSchedule = true);

/**
 * Canonical front-end trace-cache key of @p opt on the curve named
 * @p curve: (curve, TracePart, front-end pipeline, variants). Two
 * options with equal keys share one cached trace; the batched DSE
 * engine groups design points by exactly this key.
 */
std::string traceCacheKey(const std::string &curve,
                          const CompileOptions &opt);

/**
 * The area model's input for one compiled design point: the one place
 * a DesignPoint is built from backend artifacts.
 */
DesignPoint designPoint(int fpBits, const PipelineModel &hw, int cores,
                        const BankAssignment &banks,
                        const RegAssignment &regs, size_t imemBits);

/**
 * Counters of the process-wide front-end trace cache. The cache is one
 * map under one mutex, held for a lookup and never across a trace, so
 * concurrent requests for different keys trace in parallel;
 * concurrent requests for the SAME key are coalesced -- the first
 * caller traces, the others block on the in-flight entry instead of
 * tracing redundantly.
 */
struct TraceCacheStats
{
    size_t hits = 0;      ///< ready in-memory entry found
    size_t misses = 0;    ///< in-memory misses (disk consulted if enabled)
    size_t coalesced = 0; ///< waited on another thread's in-flight trace
    size_t entries = 0;   ///< resident cached modules

    // Persistent artifact-cache legs (all zero when
    // $FINESSE_ARTIFACT_CACHE is unset: the disk is never consulted
    // and in-memory behavior is bit-identical to a build without the
    // cache).
    size_t diskHits = 0;    ///< traces loaded from the artifact cache
    size_t diskMisses = 0;  ///< disk consulted, no usable entry
    size_t diskPuts = 0;    ///< freshly-traced modules persisted
    size_t diskRejects = 0; ///< undecodable entries discarded loudly

    /** Front-end traces actually computed (not served by any cache). */
    size_t tracesPerformed() const { return misses - diskHits; }
};

/** Snapshot the trace-cache counters. */
TraceCacheStats traceCacheStats();

/**
 * Test-only: override the trace-cache entry bound so the
 * eviction path can be exercised without tracing hundreds of keys.
 * 0 restores the built-in default. Returns the previous bound.
 */
size_t setTraceCacheCapacityForTesting(size_t capacity);

/**
 * Drop all cached traces and reset the counters (tests/benches).
 * Safe against concurrent compile() callers: in-flight traces
 * complete normally for their waiters (the results are simply not
 * retained).
 */
void clearTraceCache();

/** The user-facing framework facade. */
class Framework
{
  public:
    explicit Framework(const std::string &curveName)
        : handle_(&curveHandle(curveName))
    {}

    const CurveInfo &info() const { return handle_->info(); }
    const ICurveHandle &handle() const { return *handle_; }

    /** Run the compilation pipeline. */
    CompileResult
    compile(const CompileOptions &opt = CompileOptions{}) const
    {
        return handle_->compile(opt);
    }

    /** traceCacheKey of @p opt under this curve's catalog name. */
    std::string traceKey(const CompileOptions &opt) const;

    /**
     * Zero-clone handle to the (cached) front-end trace for @p opt.
     * The module is shared read-only with the cache and every other
     * holder -- never mutate it; run the backend against it via the
     * batched engine (compiler/backendprep.h). Fills @p stats with
     * the front-end pass stats. The handle keeps the trace alive
     * across cache eviction and clearTraceCache().
     */
    std::shared_ptr<const Module> traceShared(const CompileOptions &opt,
                                              OptStats &stats) const;

    /** Cross-validate a compiled program against the native library. */
    ValidationReport validate(const CompileResult &result, int vectors,
                              TracePart part = TracePart::Full,
                              u64 seed = 42) const;

    /**
     * Validate a bare SSA module (e.g. an ablation-optimized trace
     * that never went through the backend) against the native
     * library on the functional simulator. Returns the number of
     * matching vectors (== @p vectors when the module is correct).
     */
    int validateModule(const Module &m, int vectors,
                       TracePart part = TracePart::Full,
                       u64 seed = 42) const;

    /** Cycle-accurate simulation of a compiled program. */
    CycleStats
    simulate(const CompileResult &result) const
    {
        return simulateCycles(result.prog);
    }

    /** Area report for a compiled program at a core count. */
    AreaReport
    area(const CompileResult &result, int cores = 1) const
    {
        return AreaModel().report(designPoint(
            info().logP(), result.prog.hw, cores, result.prog.banks,
            result.prog.regs, result.binary.imemBits()));
    }

  private:
    const ICurveHandle *handle_;
};

} // namespace finesse

#endif // FINESSE_CORE_FRAMEWORK_H_
