/**
 * @file
 * Framework implementation: type-erased curve handles over the two
 * tower shapes, the compile pipeline (IROpt PassManager, then the
 * fixed backend sequence the sweep runs), the process-wide front-end
 * trace cache, and functional validation.
 */
#include "core/framework.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "compiler/backendprep.h"
#include "compiler/codegen.h"
#include "core/artifacts.h"
#include "pairing/cache.h"
#include "sim/functional.h"
#include "support/diskcache.h"

namespace finesse {

namespace {

/** Flatten an affine G1/G2 pair into the module input convention. */
template <typename G1Affine, typename G2Affine>
std::vector<BigInt>
flattenPairInputs(const G1Affine &p, const G2Affine &q)
{
    std::vector<BigInt> in;
    p.x.toFpCoeffs(in);
    p.y.toFpCoeffs(in);
    q.x.toFpCoeffs(in);
    q.y.toFpCoeffs(in);
    return in;
}

// ------------------------------------------------- front-end trace cache
//
// One mutex over one map, with in-flight coalescing so N workers
// asking for the same key trace it once: the first caller publishes a
// slot, traces OUTSIDE the cache lock, then fills the slot and wakes
// the waiters. The lock covers a map lookup (plus, on a miss past the
// entry bound, the eviction scan), never a trace, and a sweep takes it
// once per trace-key group (a compile, once), so one lock does not
// serialize the workers.

/** One cached front-end result: traced + optimized module and stats. */
struct TraceCacheEntry
{
    Module module;
    OptStats stats;
};

/**
 * Shared state of one cache entry, ready or in flight. Waiters hold a
 * shared_ptr, so eviction or clearTraceCache() can drop the cache's
 * reference while a trace is still being produced or consumed.
 */
struct TraceSlot
{
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    std::exception_ptr error; ///< set instead of `ready` on failure
    TraceCacheEntry entry;
};

struct TraceCache
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<TraceSlot>> slots;
};

// Bound resident memory: cached modules are multi-MB, and a
// long-lived process sweeping many (curve, variants) keys must not
// grow without limit. 256 entries comfortably hold a full-variant-space
// sweep (96 combos) over a couple of curves. Past the bound, each miss
// evicts a ready entry (see evictOverCapacity); re-tracing an evicted
// key is correct, just slower.
constexpr size_t kMaxTraceEntries = 256;
std::atomic<size_t> g_traceCapacity{kMaxTraceEntries};

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

std::atomic<size_t> g_traceHits{0};
std::atomic<size_t> g_traceMisses{0};
std::atomic<size_t> g_traceCoalesced{0};
std::atomic<size_t> g_traceDiskHits{0};
std::atomic<size_t> g_traceDiskMisses{0};
std::atomic<size_t> g_traceDiskPuts{0};
std::atomic<size_t> g_traceDiskRejects{0};

/**
 * Enforce the entry bound; the caller holds @p cache's lock. While
 * over capacity, drop the first READY entry in key order. In-flight
 * slots are never evicted (their producers still hold a reference and
 * expect to publish the result to their waiters), so the bound is
 * soft while traces are outstanding; a scan that finds nothing
 * evictable stops rather than spinning.
 */
void
evictOverCapacity(TraceCache &cache)
{
    while (cache.slots.size() >
           g_traceCapacity.load(std::memory_order_relaxed)) {
        // The slot lock is released before the erase: the map may
        // hold the last reference, and destroying a locked mutex is
        // undefined.
        const auto victim = std::find_if(
            cache.slots.begin(), cache.slots.end(), [](const auto &kv) {
                std::lock_guard<std::mutex> sl(kv.second->mutex);
                return kv.second->ready;
            });
        if (victim == cache.slots.end())
            return; // everything resident is in flight
        cache.slots.erase(victim);
    }
}

/**
 * Persistent-cache leg of a trace miss: try to load the traced +
 * optimized module from the artifact cache (keyed by the canonical
 * trace key plus the build/catalog fingerprint, core/artifacts.h).
 * An entry that passes the DiskCache checksum but fails to decode is
 * invalidated on disk and counted as a loud reject.
 */
bool
loadTraceArtifact(const std::string &key, TraceCacheEntry &entry)
{
    DiskCache *dc = artifactCache();
    if (!dc)
        return false;
    const std::string diskKey = traceArtifactKey(key);
    std::vector<u8> bytes;
    if (!dc->get(diskKey, bytes)) {
        g_traceDiskMisses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (!decodeTraceArtifact(bytes, entry.module, entry.stats)) {
        dc->remove(diskKey);
        g_traceDiskRejects.fetch_add(1, std::memory_order_relaxed);
        g_traceDiskMisses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    g_traceDiskHits.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
storeTraceArtifact(const std::string &key, const TraceCacheEntry &entry)
{
    DiskCache *dc = artifactCache();
    if (!dc)
        return;
    if (dc->put(traceArtifactKey(key),
                encodeTraceArtifact(entry.module, entry.stats)))
        g_traceDiskPuts.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Front end with caching: trace + IROpt exactly once per (curve,
 * variants, part, pipeline) key. Returns a zero-clone handle aliased
 * into the cache slot: the module is shared read-only by every caller
 * (and by the batched DSE engine), and the aliasing shared_ptr keeps
 * it alive across eviction and clearTraceCache(). A missing key is
 * traced with only the slot published (the cache lock is NOT held
 * across the trace), so concurrent requests for other keys proceed
 * and concurrent requests for the same key coalesce onto the
 * in-flight slot.
 */
std::shared_ptr<const Module>
sharedFrontend(const ICurveHandle &h, const CompileOptions &opt,
               OptStats &statsOut)
{
    auto traceNow = [&] {
        Module m = h.trace(opt.variants, opt.part, false);
        statsOut = runFrontendPipeline(m, opt.frontendPasses());
        return m;
    };
    if (!opt.useTraceCache)
        return std::make_shared<const Module>(traceNow());

    const std::string key = traceCacheKey(h.info().def.name, opt);
    TraceCache &cache = traceCache();

    std::shared_ptr<TraceSlot> slot;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.slots.find(key);
        if (it == cache.slots.end()) {
            slot = std::make_shared<TraceSlot>();
            cache.slots.emplace(key, slot);
            owner = true;
            g_traceMisses.fetch_add(1, std::memory_order_relaxed);
            evictOverCapacity(cache);
        } else {
            slot = it->second;
        }
    }

    if (owner) {
        try {
            TraceCacheEntry entry;
            if (loadTraceArtifact(key, entry)) {
                statsOut = entry.stats;
            } else {
                entry.module = traceNow();
                entry.stats = statsOut;
                storeTraceArtifact(key, entry);
            }
            std::lock_guard<std::mutex> sl(slot->mutex);
            slot->entry = std::move(entry);
            slot->ready = true;
            slot->cv.notify_all();
            return {slot, &slot->entry.module}; // shared, no clone
        } catch (...) {
            {
                std::lock_guard<std::mutex> sl(slot->mutex);
                slot->error = std::current_exception();
                slot->cv.notify_all();
            }
            // Unpublish so a later caller retries instead of
            // rereading a poisoned slot forever.
            std::lock_guard<std::mutex> lock(cache.mutex);
            auto it = cache.slots.find(key);
            if (it != cache.slots.end() && it->second == slot)
                cache.slots.erase(it);
            throw;
        }
    }

    std::unique_lock<std::mutex> sl(slot->mutex);
    if (!slot->ready && !slot->error) {
        g_traceCoalesced.fetch_add(1, std::memory_order_relaxed);
        slot->cv.wait(sl, [&] { return slot->ready || slot->error; });
    } else {
        g_traceHits.fetch_add(1, std::memory_order_relaxed);
    }
    if (slot->error)
        std::rethrow_exception(slot->error);
    statsOut = slot->entry.stats;
    return {slot, &slot->entry.module}; // shared, no clone
}

/** Owning-copy front end (Framework::compile needs its own module). */
Module
cachedFrontend(const ICurveHandle &h, const CompileOptions &opt,
               OptStats &statsOut)
{
    if (!opt.useTraceCache) {
        Module m = h.trace(opt.variants, opt.part, false);
        statsOut = runFrontendPipeline(m, opt.frontendPasses());
        return m;
    }
    return *sharedFrontend(h, opt, statsOut); // clone
}

/**
 * The fixed backend over a traced module: runBackendPoint, the exact
 * sequence every sweep point runs, then the ASM/Link encoder for the
 * binary. Appends the four backend stage rows to the front-end stats.
 */
CompileResult
runBackendStages(Module module, const PipelineModel &hw,
                 bool listSchedule, OptStats stats)
{
    const auto start = std::chrono::steady_clock::now();
    BackendPoint bp;
    {
        // Freed before the binary is materialized (peak memory).
        const TracePrep prep = buildTracePrep(module);
        BackendScratch scratch;
        runBackendPoint(module, prep, hw, listSchedule, scratch, bp);
    }

    CompileResult result;
    result.prog.module = std::move(module);
    result.prog.hw = hw;
    result.prog.banks = std::move(bp.banks);
    result.prog.schedule = std::move(bp.schedule);
    result.prog.regs = std::move(bp.regs);
    const auto tEnc = std::chrono::steady_clock::now();
    result.binary = encodeProgram(result.prog);
    bp.encodeSeconds += secondsSince(tEnc);
    appendBackendStats(stats, bp);
    result.opt = std::move(stats);
    result.compileSeconds = secondsSince(start);
    return result;
}

template <typename TW, typename SymTW>
class CurveHandleImpl : public ICurveHandle
{
  public:
    explicit CurveHandleImpl(const CurveSystem<TW> &sys) : sys_(sys) {}

    const CurveInfo &info() const override { return sys_.info(); }
    const PairingPlan &plan() const override { return sys_.plan(); }

    Module
    trace(const VariantConfig &variants, TracePart part,
          bool optimize) const override
    {
        Module m = tracePairing<SymTW>(sys_, variants, part);
        if (optimize)
            runFrontendPipeline(m, frontendPassNames());
        return m;
    }

    CompileResult
    compile(const CompileOptions &opt) const override
    {
        const auto start = std::chrono::steady_clock::now();
        OptStats stats;
        Module m = cachedFrontend(*this, opt, stats);
        CompileResult result = runBackendStages(
            std::move(m), opt.hw, opt.listSchedule, std::move(stats));
        result.compileSeconds = secondsSince(start);
        return result;
    }

    std::vector<BigInt>
    sampleInputs(Rng &rng, TracePart part) const override
    {
        if (part == TracePart::FinalExpOnly) {
            // A Miller-loop output makes the input domain realistic.
            const auto p = sys_.randomG1(rng);
            const auto q = sys_.randomG2(rng);
            const auto f =
                sys_.engine().miller(p.x, p.y, q.x, q.y);
            std::vector<BigInt> in;
            f.toFpCoeffs(in);
            return in;
        }
        const auto p = sys_.randomG1(rng);
        const auto q = sys_.randomG2(rng);
        return flattenPairInputs(p, q);
    }

    std::vector<std::vector<BigInt>>
    sampleInputsBatch(Rng &rng, TracePart part, int n) const override
    {
        // Scalars are drawn in the exact order of n sequential
        // sampleInputs calls (s1_0, s2_0, s1_1, ...), so the RNG
        // stream -- and therefore every sampled point -- is identical
        // to the per-element path; only the affine conversions batch.
        if (part == TracePart::FinalExpOnly || n <= 1)
            return ICurveHandle::sampleInputsBatch(rng, part, n);
        using FtT = typename TW::FtT;
        std::vector<JacPt<Fp>> j1;
        std::vector<JacPt<FtT>> j2;
        j1.reserve(static_cast<size_t>(n));
        j2.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            j1.push_back(sys_.randomG1Jac(rng));
            j2.push_back(sys_.randomG2Jac(rng));
        }
        const auto a1 = jacToAffineBatch(j1, &sys_.fpCtx());
        const auto a2 = jacToAffineBatch(j2, sys_.twistCurve().field);
        std::vector<std::vector<BigInt>> out;
        out.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            out.push_back(flattenPairInputs(a1[i], a2[i]));
        return out;
    }

    std::vector<BigInt>
    nativeReference(const std::vector<BigInt> &inputs,
                    TracePart part) const override
    {
        using FtT = typename TW::FtT;
        using GtT = typename TW::GtT;
        auto it = inputs.begin();
        std::vector<BigInt> out;
        if (part == TracePart::FinalExpOnly) {
            const GtT f =
                GtT::fromFpCoeffs(sys_.tower().gtCtx(), it);
            FINESSE_CHECK(it == inputs.end());
            sys_.engine().finalExp(f).toFpCoeffs(out);
            return out;
        }
        const Fp xP = Fp::fromFpCoeffs(&sys_.fpCtx(), it);
        const Fp yP = Fp::fromFpCoeffs(&sys_.fpCtx(), it);
        const FtT xQ = FtT::fromFpCoeffs(sys_.tower().ftCtx(), it);
        const FtT yQ = FtT::fromFpCoeffs(sys_.tower().ftCtx(), it);
        FINESSE_CHECK(it == inputs.end());
        if (part == TracePart::MillerOnly) {
            sys_.engine().miller(xP, yP, xQ, yQ).toFpCoeffs(out);
        } else {
            sys_.engine().pair(xP, yP, xQ, yQ).toFpCoeffs(out);
        }
        return out;
    }

  private:
    const CurveSystem<TW> &sys_;
};

} // namespace

size_t
setTraceCacheCapacityForTesting(size_t capacity)
{
    return g_traceCapacity.exchange(
        capacity == 0 ? kMaxTraceEntries : capacity,
        std::memory_order_relaxed);
}

TraceCacheStats
traceCacheStats()
{
    TraceCacheStats s;
    s.hits = g_traceHits.load(std::memory_order_relaxed);
    s.misses = g_traceMisses.load(std::memory_order_relaxed);
    s.coalesced = g_traceCoalesced.load(std::memory_order_relaxed);
    s.diskHits = g_traceDiskHits.load(std::memory_order_relaxed);
    s.diskMisses = g_traceDiskMisses.load(std::memory_order_relaxed);
    s.diskPuts = g_traceDiskPuts.load(std::memory_order_relaxed);
    s.diskRejects = g_traceDiskRejects.load(std::memory_order_relaxed);
    TraceCache &cache = traceCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    s.entries = cache.slots.size();
    return s;
}

void
clearTraceCache()
{
    // A concurrent compile() either completed its lookup before the
    // clear (and holds its own shared_ptr to the slot, which stays
    // valid) or will miss afterwards and re-trace.
    TraceCache &cache = traceCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.slots.clear();
    g_traceHits.store(0, std::memory_order_relaxed);
    g_traceMisses.store(0, std::memory_order_relaxed);
    g_traceCoalesced.store(0, std::memory_order_relaxed);
    g_traceDiskHits.store(0, std::memory_order_relaxed);
    g_traceDiskMisses.store(0, std::memory_order_relaxed);
    g_traceDiskPuts.store(0, std::memory_order_relaxed);
    g_traceDiskRejects.store(0, std::memory_order_relaxed);
}

std::string
traceCacheKey(const std::string &curve, const CompileOptions &opt)
{
    std::string key = curve;
    key += '|';
    key += std::to_string(static_cast<int>(opt.part));
    key += '|';
    for (const std::string &n : opt.frontendPasses()) {
        key += n;
        key += ',';
    }
    key += '|';
    key += opt.variants.cacheKey();
    return key;
}

std::string
Framework::traceKey(const CompileOptions &opt) const
{
    return traceCacheKey(handle_->info().def.name, opt);
}

std::shared_ptr<const Module>
Framework::traceShared(const CompileOptions &opt, OptStats &stats) const
{
    return sharedFrontend(*handle_, opt, stats);
}

CompileResult
runBackend(Module module, const PipelineModel &hw, bool listSchedule)
{
    OptStats stats;
    stats.instrsBefore = stats.instrsAfter = module.size();
    return runBackendStages(std::move(module), hw, listSchedule,
                            std::move(stats));
}

DesignPoint
designPoint(int fpBits, const PipelineModel &hw, int cores,
            const BankAssignment &banks, const RegAssignment &regs,
            size_t imemBits)
{
    DesignPoint dp;
    dp.fpBits = fpBits;
    dp.longDepth = hw.longLat;
    dp.numLinUnits = hw.numLinUnits;
    dp.cores = cores;
    dp.imemBits = imemBits;
    for (i32 w : regs.maxRegsPerBank)
        dp.dmemWords += static_cast<size_t>(w);
    dp.numBanks = banks.numBanks;
    return dp;
}

const ICurveHandle &
curveHandle(const std::string &name)
{
    static std::mutex mtx;
    static std::map<std::string, std::unique_ptr<ICurveHandle>> cache;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = cache.find(name);
    if (it == cache.end()) {
        const CurveDef &def = findCurve(name);
        std::unique_ptr<ICurveHandle> handle;
        if (def.family == CurveFamily::BLS24) {
            handle = std::make_unique<
                CurveHandleImpl<NativeTower24, Tower24<SymFp>>>(
                curveSystem24(name));
        } else {
            handle = std::make_unique<
                CurveHandleImpl<NativeTower12, Tower12<SymFp>>>(
                curveSystem12(name));
        }
        it = cache.emplace(name, std::move(handle)).first;
    }
    return *it->second;
}

int
Framework::validateModule(const Module &m, int vectors, TracePart part,
                          u64 seed) const
{
    Rng rng(seed);
    FpCtx fp(info().p);
    int matches = 0;
    const auto allInputs =
        handle_->sampleInputsBatch(rng, part, vectors);
    for (int i = 0; i < vectors; ++i) {
        const auto &inputs = allInputs[static_cast<size_t>(i)];
        const auto want = handle_->nativeReference(inputs, part);
        matches += runModule(m, fp, inputs) == want;
    }
    return matches;
}

ValidationReport
Framework::validate(const CompileResult &result, int vectors,
                    TracePart part, u64 seed) const
{
    ValidationReport report;
    report.vectors = vectors;
    Rng rng(seed);
    FpCtx fp(info().p);
    const auto allInputs =
        handle_->sampleInputsBatch(rng, part, vectors);
    for (int i = 0; i < vectors; ++i) {
        const auto &inputs = allInputs[static_cast<size_t>(i)];
        const auto want = handle_->nativeReference(inputs, part);
        const auto gotModule =
            runModule(result.prog.module, fp, inputs);
        const auto gotAllocated = runAllocated(result.prog, fp, inputs);
        report.moduleMatches += gotModule == want;
        report.allocatedMatches += gotAllocated == want;
    }
    return report;
}

} // namespace finesse
