#include "serve/engine.h"

#include <algorithm>

namespace finesse {

namespace {

double
msSince(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

} // namespace

ServeEngine::ServeEngine(const CurveSystem12 &sys,
                         const ServeOptions &opt)
    : sys_(sys), opt_(opt), pool_(opt.jobs)
{
    FINESSE_REQUIRE(opt_.batchSize >= 1, "serve batchSize must be >= 1");
    FINESSE_REQUIRE(opt_.maxQueue >= 1, "serve maxQueue must be >= 1");
    // One lane per pool worker: each lane is a long-running task that
    // owns whole batches end to end, so a verdict never waits behind
    // an unrelated queued task.
    for (int i = 0; i < pool_.size(); ++i)
        pool_.submit([this] { laneLoop(); });
}

ServeEngine::~ServeEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    // pool_ destructor joins the lanes; they drain the queue first so
    // every admitted request still gets its verdict.
}

Admission
ServeEngine::submit(const VerifyRequest &req)
{
    // Reduce outside the lock: scheme -> pairing-product form costs
    // a few G1 scalar muls (KZG) and must not serialize submitters.
    PairingCheck check = reduceToCheck(sys_, req);

    Admission out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FINESSE_CHECK(!stop_, "submit on stopped ServeEngine");
        if (queue_.size() >= static_cast<size_t>(opt_.maxQueue)) {
            counters_.rejectedBusy++;
            const double backlogBatches =
                double(queue_.size()) / double(opt_.batchSize);
            out.retryAfterMs = std::max(
                1, static_cast<int>(backlogBatches * avgBatchMs_ /
                                    double(pool_.size())));
            return out;
        }
        Pending p;
        p.check = std::move(check);
        p.enqueued = std::chrono::steady_clock::now();
        out.verdict = p.promise.get_future();
        queue_.push_back(std::move(p));
        counters_.submitted++;
        out.admitted = true;
    }
    workCv_.notify_one();
    return out;
}

void
ServeEngine::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drainCv_.wait(lock,
                  [this] { return queue_.empty() && inflight_ == 0; });
}

ServeCounters
ServeEngine::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
ServeEngine::laneLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        u64 seq = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ && drained
            const size_t take =
                std::min(queue_.size(),
                         static_cast<size_t>(opt_.batchSize));
            batch.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            seq = batchCounter_++;
            inflight_++;
        }
        runBatch(std::move(batch), seq);
    }
}

void
ServeEngine::runBatch(std::vector<Pending> batch, u64 seq)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<PairingCheck> checks;
    checks.reserve(batch.size());
    for (Pending &p : batch)
        checks.push_back(std::move(p.check));

    BatchVerifyStats stats;
    std::vector<bool> verdicts;
    std::exception_ptr error;
    try {
        verdicts = verifyBatch(sys_, checks, batchSeed(opt_.seed, seq),
                               &stats);
    } catch (...) {
        error = std::current_exception();
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (size_t i = 0; i < batch.size(); ++i) {
        if (error)
            batch[i].promise.set_exception(error);
        else
            batch[i].promise.set_value(verdicts[i] ? Verdict::Accept
                                                   : Verdict::Reject);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        const double batchMs = msSince(t0, t1);
        counters_.batches++;
        counters_.totalBatchMs += batchMs;
        avgBatchMs_ = 0.7 * avgBatchMs_ + 0.3 * batchMs;
        counters_.products += stats.products;
        counters_.pairings += stats.pairings;
        counters_.singleFallbacks += stats.singleChecks;
        counters_.bisectSplits += stats.bisectSplits;
        for (size_t i = 0; i < batch.size(); ++i) {
            counters_.completed++;
            if (!error && verdicts[i])
                counters_.accepted++;
            else if (!error)
                counters_.rejectedInvalid++;
            const double lat = msSince(batch[i].enqueued, t1);
            counters_.totalLatencyMs += lat;
            counters_.maxLatencyMs =
                std::max(counters_.maxLatencyMs, lat);
        }
        inflight_--;
    }
    drainCv_.notify_all();
}

} // namespace finesse
