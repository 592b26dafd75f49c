#include "dse/search.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "core/artifacts.h"
#include "dse/wire.h"
#include "support/diskcache.h"

namespace finesse {

namespace {

std::string
hex16(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

/** Index of the candidate nearest to @p v (first minimum: stable). */
size_t
nearestIndex(const std::vector<int> &cands, int v)
{
    size_t best = 0;
    for (size_t i = 1; i < cands.size(); ++i) {
        if (std::abs(cands[i] - v) < std::abs(cands[best] - v))
            best = i;
    }
    return best;
}

int
pickCandidate(const std::vector<int> &cands, Rng &rng)
{
    return cands[rng.below(cands.size())];
}

/** Re-pick @p v among candidates within @p radius index steps. */
void
stepDim(int &v, const std::vector<int> &cands, Rng &rng, int radius)
{
    const size_t idx = nearestIndex(cands, v);
    const size_t lo = idx >= static_cast<size_t>(radius)
                          ? idx - static_cast<size_t>(radius)
                          : 0;
    const size_t hi =
        std::min(cands.size() - 1, idx + static_cast<size_t>(radius));
    v = cands[lo + rng.below(hi - lo + 1)];
}

/**
 * Content-addressed key of one evaluated design point. Everything
 * the deterministic result depends on is in the key: the build /
 * catalog fingerprint and both codec versions, the front-end trace
 * key (curve, part, front-end pipeline, variants), the scheduling
 * mode, the full hardware model, and the core count. The point label
 * is NOT keyed -- it is presentation, and the cache hit path restores
 * the requester's label.
 */
std::string
pointArtifactKey(const Framework &fw, const DseRequest &req)
{
    std::ostringstream os;
    os << "point|" << hex16(artifactFingerprint()) << "|w"
       << wire::kPointCodecVersion << "|" << fw.traceKey(req.opt);
    const PipelineModel &m = req.opt.hw;
    u64 betaBits = 0;
    static_assert(sizeof betaBits == sizeof m.beta);
    std::memcpy(&betaBits, &m.beta, sizeof betaBits);
    os << "|hw:" << m.longLat << "." << m.shortLat << "." << m.invLat
       << "." << m.issueWidth << "." << m.numLinUnits << "." << m.numBanks
       << "." << m.readsPerBank << "." << m.writesPerBank << "."
       << (m.writebackFifo ? 1 : 0) << "." << m.fifoDepth << ".b"
       << hex16(betaBits) << "|c" << req.cores << "|s"
       << (req.opt.listSchedule ? 1 : 0);
    return os.str();
}

bool
decodePointArtifact(const std::vector<u8> &bytes, DsePoint &out)
{
    try {
        ByteReader r(bytes);
        out = wire::getPoint(r);
        r.expectEnd();
        return true;
    } catch (const FatalError &e) {
        std::fprintf(stderr,
                     "finesse: discarding undecodable point artifact (%s)\n",
                     e.what());
        return false;
    }
}

/**
 * Squaring choices per tower level (field/variants.h): cubic levels
 * have three decompositions, quadratic two. Same cubic rule as
 * Explorer::variantSpace.
 */
std::vector<u8>
defaultSqrOptions(const Explorer &ex, const std::vector<int> &levels)
{
    const int k = ex.framework().info().k;
    std::vector<u8> opts;
    opts.reserve(levels.size());
    for (const int d : levels)
        opts.push_back(d == 6 || (d == 12 && k == 24) ? 3 : 2);
    return opts;
}

} // namespace

// SearchSpace --------------------------------------------------------

SearchSpace
SearchSpace::standard(const Explorer &ex)
{
    SearchSpace s;
    s.longLat = {8, 12, 16, 24, 32, 38, 48, 64};
    s.shortLat = {2, 4, 8};
    s.issueWidth = {1, 2, 3, 5, 7};
    s.numLinUnits = {1, 2, 4, 6};
    s.numBanks = {1, 2, 3, 4, 5, 7, 8};
    s.fifoDepth = {2, 4, 8, 16, 32};
    s.cores = {1, 2, 4, 8};
    s.mulLevels = ex.towerDegrees();
    s.sqrOptions = defaultSqrOptions(ex, s.mulLevels);
    return s;
}

u64
SearchSpace::combinations() const
{
    u64 n = 1;
    n *= longLat.size();
    n *= shortLat.size();
    n *= issueWidth.size();
    n *= numLinUnits.size();
    n *= numBanks.size();
    n *= fifoDepth.size();
    n *= cores.size();
    n *= u64{1} << mulLevels.size();
    for (size_t i = 0; i < mulLevels.size(); ++i)
        n *= i < sqrOptions.size() ? sqrOptions[i] : 2;
    return n;
}

std::string
Genome::key() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "L%d|S%d|W%d|lin%d|b%d|f%d|c%d|m%02x|q%02x", longLat,
                  shortLat, issueWidth, numLinUnits, numBanks, fifoDepth,
                  cores, mulMask, sqrSel);
    return std::string(buf);
}

// ParetoSearch -------------------------------------------------------

ParetoSearch::ParetoSearch(const Explorer &ex, SearchSpace space,
                           SearchOptions opt)
    : ex_(ex), space_(std::move(space)), opt_(std::move(opt))
{
    FINESSE_REQUIRE(!space_.longLat.empty() && !space_.shortLat.empty() &&
                        !space_.issueWidth.empty() &&
                        !space_.numLinUnits.empty() &&
                        !space_.numBanks.empty() &&
                        !space_.fifoDepth.empty() && !space_.cores.empty(),
                    "search space has an empty dimension");
    if (space_.sqrOptions.size() != space_.mulLevels.size())
        space_.sqrOptions = defaultSqrOptions(ex_, space_.mulLevels);
}

void
ParetoSearch::repair(Genome &g) const
{
    g.longLat = space_.longLat[nearestIndex(space_.longLat, g.longLat)];
    g.shortLat = space_.shortLat[nearestIndex(space_.shortLat, g.shortLat)];
    g.issueWidth =
        space_.issueWidth[nearestIndex(space_.issueWidth, g.issueWidth)];
    g.numLinUnits =
        space_.numLinUnits[nearestIndex(space_.numLinUnits, g.numLinUnits)];
    g.numBanks = space_.numBanks[nearestIndex(space_.numBanks, g.numBanks)];
    g.fifoDepth =
        space_.fifoDepth[nearestIndex(space_.fifoDepth, g.fifoDepth)];
    g.cores = space_.cores[nearestIndex(space_.cores, g.cores)];

    // Structural constraints (PipelineModel::validate): pick the
    // largest short latency below the long latency, and the smallest
    // bank count covering the issue width (candidates are ascending).
    if (g.shortLat >= g.longLat) {
        int v = space_.shortLat.front();
        for (int c : space_.shortLat) {
            if (c < g.longLat)
                v = c;
        }
        g.shortLat = v;
    }
    if (g.numBanks < g.issueWidth) {
        int v = space_.numBanks.back();
        for (auto it = space_.numBanks.rbegin(); it != space_.numBanks.rend();
             ++it) {
            if (*it >= g.issueWidth)
                v = *it;
        }
        g.numBanks = v;
    }
    g.mulMask &= static_cast<u32>((u64{1} << space_.mulLevels.size()) - 1);

    // Canonicalize the squaring selector: one representation per
    // distinct variant config, so genome dedup never re-evaluates an
    // alias. Out-of-range selectors fall back to the fast
    // decomposition.
    u32 sel = 0;
    for (size_t i = 0; i < space_.mulLevels.size(); ++i) {
        u32 v = (g.sqrSel >> (2 * i)) & 3;
        if (v >= space_.sqrOptions[i])
            v = 1;
        sel |= v << (2 * i);
    }
    g.sqrSel = sel;
}

DseRequest
ParetoSearch::materialize(const Genome &g) const
{
    DseRequest req;
    req.opt = opt_.base;
    req.opt.variants = VariantConfig{};
    for (size_t i = 0; i < space_.mulLevels.size(); ++i) {
        const int d = space_.mulLevels[i];
        const bool cubic = space_.sqrOptions[i] == 3;
        const u32 sel = (g.sqrSel >> (2 * i)) & 3;
        LevelVariants lv;
        lv.mul = (g.mulMask >> i) & 1 ? MulVariant::Karatsuba
                                      : MulVariant::Schoolbook;
        if (sel == 0)
            lv.sqr = SqrVariant::Schoolbook;
        else if (cubic)
            lv.sqr = sel == 2 ? SqrVariant::CHSqr2 : SqrVariant::CHSqr3;
        else
            lv.sqr = SqrVariant::Complex;
        req.opt.variants.levels[d] = lv;
    }
    PipelineModel hw;
    hw.longLat = g.longLat;
    hw.shortLat = g.shortLat;
    hw.issueWidth = g.issueWidth;
    hw.numLinUnits = g.numLinUnits;
    hw.numBanks = g.numBanks;
    hw.writebackFifo = g.issueWidth > 1;
    hw.fifoDepth = g.fifoDepth;
    hw.validate();
    req.opt.hw = hw;
    req.cores = g.cores;
    req.label = g.key();
    return req;
}

Genome
ParetoSearch::randomGenome(Rng &rng) const
{
    Genome g;
    g.longLat = pickCandidate(space_.longLat, rng);
    g.shortLat = pickCandidate(space_.shortLat, rng);
    g.issueWidth = pickCandidate(space_.issueWidth, rng);
    g.numLinUnits = pickCandidate(space_.numLinUnits, rng);
    g.numBanks = pickCandidate(space_.numBanks, rng);
    g.fifoDepth = pickCandidate(space_.fifoDepth, rng);
    g.cores = pickCandidate(space_.cores, rng);
    g.mulMask = space_.mulLevels.empty()
                    ? 0
                    : static_cast<u32>(
                          rng.below(u64{1} << space_.mulLevels.size()));
    g.sqrSel = 0;
    for (size_t i = 0; i < space_.mulLevels.size(); ++i)
        g.sqrSel |= static_cast<u32>(rng.below(space_.sqrOptions[i]))
                    << (2 * i);
    repair(g);
    return g;
}

Genome
ParetoSearch::mutate(Genome g, Rng &rng, int radius) const
{
    const u64 nDims = space_.mulLevels.empty() ? 7 : 9;
    const int count = 1 + static_cast<int>(rng.below(2));
    for (int i = 0; i < count; ++i) {
        switch (rng.below(nDims)) {
          case 0:
            stepDim(g.longLat, space_.longLat, rng, radius);
            break;
          case 1:
            stepDim(g.shortLat, space_.shortLat, rng, radius);
            break;
          case 2:
            stepDim(g.issueWidth, space_.issueWidth, rng, radius);
            break;
          case 3:
            stepDim(g.numLinUnits, space_.numLinUnits, rng, radius);
            break;
          case 4:
            stepDim(g.numBanks, space_.numBanks, rng, radius);
            break;
          case 5:
            stepDim(g.fifoDepth, space_.fifoDepth, rng, radius);
            break;
          case 6:
            stepDim(g.cores, space_.cores, rng, radius);
            break;
          case 7:
            g.mulMask ^= u32{1} << rng.below(space_.mulLevels.size());
            break;
          default: {
            const size_t lvl = rng.below(space_.mulLevels.size());
            const u32 v =
                static_cast<u32>(rng.below(space_.sqrOptions[lvl]));
            g.sqrSel = (g.sqrSel & ~(u32{3} << (2 * lvl))) |
                       (v << (2 * lvl));
            break;
          }
        }
    }
    return g;
}

Genome
ParetoSearch::crossover(const Genome &a, const Genome &b, Rng &rng) const
{
    Genome g;
    g.longLat = rng.below(2) ? a.longLat : b.longLat;
    g.shortLat = rng.below(2) ? a.shortLat : b.shortLat;
    g.issueWidth = rng.below(2) ? a.issueWidth : b.issueWidth;
    g.numLinUnits = rng.below(2) ? a.numLinUnits : b.numLinUnits;
    g.numBanks = rng.below(2) ? a.numBanks : b.numBanks;
    g.fifoDepth = rng.below(2) ? a.fifoDepth : b.fifoDepth;
    g.cores = rng.below(2) ? a.cores : b.cores;
    g.mulMask = rng.below(2) ? a.mulMask : b.mulMask;
    g.sqrSel = rng.below(2) ? a.sqrSel : b.sqrSel;
    return g;
}

const ParetoSearch::Evaluated &
ParetoSearch::tournament(Rng &rng) const
{
    const Evaluated &a =
        evaluated_.at(evalOrder_[rng.below(evalOrder_.size())]);
    const Evaluated &b =
        evaluated_.at(evalOrder_[rng.below(evalOrder_.size())]);
    const double sa = Explorer::score(a.point, opt_.objective);
    const double sb = Explorer::score(b.point, opt_.objective);
    if (sa != sb)
        return sa > sb ? a : b;
    return a.genome.key() <= b.genome.key() ? a : b;
}

std::vector<Genome>
ParetoSearch::initialPopulation(Rng &rng) const
{
    std::vector<Genome> pop;
    if (opt_.seedGridCorners) {
        // Every grid point: all mul masks with the grid's fast
        // squaring, plus the all-Schoolbook preset corner (the only
        // grid config off the fast-squaring plane; it has the
        // smallest area of any variant, so the frontier needs it).
        const u32 nMasks = u32{1} << space_.mulLevels.size();
        for (const PipelineModel &m : fig10HardwareModels()) {
            Genome g;
            g.longLat = m.longLat;
            g.shortLat = m.shortLat;
            g.issueWidth = m.issueWidth;
            g.numLinUnits = m.numLinUnits;
            g.numBanks = m.numBanks;
            g.fifoDepth = m.fifoDepth;
            g.cores = 1;
            for (u32 mask = 0; mask < nMasks; ++mask) {
                g.mulMask = mask;
                g.sqrSel = 0x55;
                repair(g); // no-op for grid models; keeps the invariant
                pop.push_back(g);
            }
            g.mulMask = 0;
            g.sqrSel = 0;
            repair(g);
            pop.push_back(g);
        }
    }
    while (pop.size() < static_cast<size_t>(std::max(1, opt_.population)))
        pop.push_back(randomGenome(rng));
    return pop;
}

std::vector<DsePoint>
ParetoSearch::evaluateBatch(const std::vector<Genome> &gs)
{
    std::vector<DseRequest> reqs;
    reqs.reserve(gs.size());
    for (const Genome &g : gs)
        reqs.push_back(materialize(g));

    std::vector<DsePoint> out(gs.size());
    std::vector<size_t> missIdx;
    std::vector<std::string> keys(gs.size());
    DiskCache *dc = artifactCache();
    const Framework &fw = ex_.framework();
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (dc != nullptr) {
            keys[i] = pointArtifactKey(fw, reqs[i]);
            std::vector<u8> payload;
            if (dc->get(keys[i], payload)) {
                DsePoint p;
                if (decodePointArtifact(payload, p)) {
                    p.label = reqs[i].label;
                    out[i] = std::move(p);
                    ++stats_.pointCacheHits;
                    continue;
                }
                dc->remove(keys[i]);
            }
        }
        missIdx.push_back(i);
    }

    if (!missIdx.empty()) {
        std::vector<DseRequest> missReqs;
        missReqs.reserve(missIdx.size());
        for (size_t i : missIdx)
            missReqs.push_back(reqs[i]);
        const std::vector<DsePoint> fresh =
            ex_.evaluateAll(missReqs, opt_.base.jobs);
        for (size_t j = 0; j < missIdx.size(); ++j) {
            out[missIdx[j]] = fresh[j];
            if (dc != nullptr) {
                ByteWriter w;
                wire::putPoint(w, fresh[j]);
                if (dc->put(keys[missIdx[j]], w.bytes()))
                    ++stats_.pointCachePuts;
            }
        }
    }
    return out;
}

void
ParetoSearch::updateArchive(const Genome &g, const DsePoint &p)
{
    for (const Evaluated &m : archive_) {
        if (weaklyDominates(m.point, p))
            return; // covered (or an exact metric duplicate)
    }
    std::vector<Evaluated> next;
    next.reserve(archive_.size() + 1);
    for (Evaluated &m : archive_) {
        if (!weaklyDominates(p, m.point))
            next.push_back(std::move(m));
    }
    next.push_back(Evaluated{g, p});
    archive_ = std::move(next);
}

SearchResult
ParetoSearch::run()
{
    stats_ = SearchStats{};
    stats_.spaceSize = space_.combinations();
    evaluated_.clear();
    evalOrder_.clear();
    archive_.clear();

    Rng rng(opt_.seed);
    const int gens = std::max(1, opt_.generations);
    std::vector<Genome> population = initialPopulation(rng);

    for (int gen = 0; gen < gens; ++gen) {
        // Unique not-yet-evaluated genomes, first-appearance order.
        std::vector<Genome> pending;
        std::set<std::string> planned;
        for (const Genome &g : population) {
            const std::string k = g.key();
            if (evaluated_.count(k) != 0 || !planned.insert(k).second)
                continue;
            pending.push_back(g);
        }

        SearchGeneration sg;
        sg.requested = pending.size();
        const size_t hitsBefore = stats_.pointCacheHits;
        const std::vector<DsePoint> pts = evaluateBatch(pending);
        sg.cachedPoints = stats_.pointCacheHits - hitsBefore;
        for (size_t i = 0; i < pending.size(); ++i) {
            const std::string k = pending[i].key();
            evaluated_.emplace(k, Evaluated{pending[i], pts[i]});
            evalOrder_.push_back(k);
            updateArchive(pending[i], pts[i]);
        }
        sg.archiveSize = archive_.size();
        stats_.generations.push_back(sg);

        if (gen + 1 >= gens)
            break;

        // Breed the next generation: tournament parents, uniform
        // crossover, mutation with a radius annealed 3 -> 1 over the
        // run. A bounded retry loop steers offspring away from
        // already-evaluated genomes; a stale child after 12 attempts
        // is accepted and simply dedups to nothing at evaluation.
        const int radius =
            gens > 2 ? 1 + (2 * (gens - 2 - gen)) / (gens - 2) : 1;
        std::vector<Genome> next;
        std::set<std::string> bred;
        for (int i = 0; i < std::max(1, opt_.population); ++i) {
            Genome child;
            for (int attempt = 0; attempt < 12; ++attempt) {
                const Evaluated &pa = tournament(rng);
                const Evaluated &pb = tournament(rng);
                child = mutate(crossover(pa.genome, pb.genome, rng), rng,
                               std::max(1, radius));
                repair(child);
                const std::string k = child.key();
                if (evaluated_.count(k) == 0 && bred.count(k) == 0)
                    break;
            }
            bred.insert(child.key());
            next.push_back(child);
        }
        population = std::move(next);
    }

    SearchResult res;
    std::vector<Evaluated> front = archive_;
    std::sort(front.begin(), front.end(),
              [](const Evaluated &a, const Evaluated &b) {
                  if (a.point.areaMm2 != b.point.areaMm2)
                      return a.point.areaMm2 < b.point.areaMm2;
                  if (a.point.throughputOps != b.point.throughputOps)
                      return a.point.throughputOps > b.point.throughputOps;
                  return a.genome.key() < b.genome.key();
              });
    for (Evaluated &e : front) {
        res.frontier.push_back(e.point);
        res.frontierGenomes.push_back(e.genome);
    }
    // Scalar winner: stable insertion-ordered reduction, exactly like
    // Explorer::exploreVariants (strictly-greater keeps the earliest).
    bool first = true;
    for (const std::string &k : evalOrder_) {
        const DsePoint &p = evaluated_.at(k).point;
        if (first || Explorer::score(p, opt_.objective) >
                         Explorer::score(res.best, opt_.objective)) {
            res.best = p;
            first = false;
        }
    }
    stats_.evaluatedUnique = evaluated_.size();
    res.stats = stats_;
    return res;
}

// Frontier helpers ---------------------------------------------------

bool
weaklyDominates(const DsePoint &a, const DsePoint &b)
{
    return a.throughputOps >= b.throughputOps && a.areaMm2 <= b.areaMm2;
}

std::vector<DsePoint>
paretoFrontier(std::vector<DsePoint> pts)
{
    std::vector<DsePoint> front;
    for (DsePoint &p : pts) {
        bool covered = false;
        for (const DsePoint &f : front) {
            if (weaklyDominates(f, p)) {
                covered = true;
                break;
            }
        }
        if (covered)
            continue;
        std::vector<DsePoint> next;
        next.reserve(front.size() + 1);
        for (DsePoint &f : front) {
            if (!weaklyDominates(p, f))
                next.push_back(std::move(f));
        }
        next.push_back(std::move(p));
        front = std::move(next);
    }
    std::sort(front.begin(), front.end(),
              [](const DsePoint &a, const DsePoint &b) {
                  if (a.areaMm2 != b.areaMm2)
                      return a.areaMm2 < b.areaMm2;
                  if (a.throughputOps != b.throughputOps)
                      return a.throughputOps > b.throughputOps;
                  return a.label < b.label;
              });
    return front;
}

bool
frontierCovers(const std::vector<DsePoint> &frontier,
               const std::vector<DsePoint> &reference)
{
    for (const DsePoint &r : reference) {
        bool covered = false;
        for (const DsePoint &f : frontier) {
            if (weaklyDominates(f, r)) {
                covered = true;
                break;
            }
        }
        if (!covered)
            return false;
    }
    return true;
}

u64
frontierFingerprint(const std::vector<DsePoint> &frontier)
{
    ByteWriter w;
    w.u32v(static_cast<u32>(frontier.size()));
    for (const DsePoint &p : frontier) {
        w.str(p.label);
        w.str(p.variants.cacheKey());
        const PipelineModel &m = p.hw;
        w.i32v(m.longLat);
        w.i32v(m.shortLat);
        w.i32v(m.invLat);
        w.i32v(m.issueWidth);
        w.i32v(m.numLinUnits);
        w.i32v(m.numBanks);
        w.i32v(m.readsPerBank);
        w.i32v(m.writesPerBank);
        w.boolv(m.writebackFifo);
        w.i32v(m.fifoDepth);
        w.f64v(m.beta);
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
    }
    return DiskCache::fnv1a(w.bytes().data(), w.bytes().size());
}

} // namespace finesse
