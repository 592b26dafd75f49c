/**
 * @file
 * ServeEngine: the long-running batch-verification engine. Callers
 * submit VerifyRequests; worker lanes on the shared ThreadPool drain
 * a bounded admission queue in batches of up to `batchSize`, verify
 * each batch as ONE random-linear-combination multi-pairing (with
 * bisection fallback pinpointing individual bad requests —
 * serve/verify.h), and fulfill per-request verdict futures.
 *
 * Admission control. The queue is bounded (`maxQueue`): a submit
 * against a full queue is REJECTED immediately with a retry-after
 * hint derived from the observed batch service time — shedding load
 * at the door keeps the latency of admitted requests bounded instead
 * of letting the queue (and every client's tail latency) grow without
 * limit. Clients are expected to back off and resubmit.
 *
 * Batching policy. A free lane takes min(batchSize, queue length)
 * requests at once and never waits for more: an idle lane is spare
 * capacity, so holding a lone request back for stragglers only adds
 * latency. Under load the queue fills while every lane is busy, so
 * batches fill by themselves exactly when fusion pays.
 *
 * Determinism. Verdicts equal per-request single verification for
 * every jobs value and any batch composition; only the
 * latency/throughput counters vary with concurrency
 * (tests/test_serve.cpp asserts serial == concurrent verdicts, and
 * the suite runs under TSan in CI).
 */
#ifndef FINESSE_SERVE_ENGINE_H_
#define FINESSE_SERVE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>

#include "serve/verify.h"
#include "support/threadpool.h"

namespace finesse {

/** Engine shape: batching, admission and concurrency knobs. */
struct ServeOptions
{
    int batchSize = 16; ///< max requests fused into one multi-pairing
    int maxQueue = 256; ///< admission bound; beyond it submits bounce
    int jobs = 1;       ///< verifier lanes (resolveJobs semantics)
    u64 seed = 0x5e55e; ///< base seed of the per-batch RLC scalars
};

/** Per-request outcome. */
enum class Verdict : u8
{
    Accept,
    Reject,
};

/** Monotonic counter snapshot (ServeEngine::counters). */
struct ServeCounters
{
    size_t submitted = 0;      ///< admitted requests
    size_t rejectedBusy = 0;   ///< bounced at the admission queue
    size_t completed = 0;      ///< verdicts delivered
    size_t accepted = 0;       ///< ... of which Accept
    size_t rejectedInvalid = 0; ///< ... of which Reject
    size_t batches = 0;        ///< batches executed
    size_t products = 0;       ///< pairing products evaluated
    size_t pairings = 0;       ///< terms across all products
    /// one-request halves a bisection split reached (computed or
    /// derived; a batch of one is not counted)
    size_t singleFallbacks = 0;
    size_t bisectSplits = 0;   ///< batch splits forced by failures
    double totalLatencyMs = 0; ///< submit -> verdict, summed
    double maxLatencyMs = 0;   ///< worst single request
    double totalBatchMs = 0;   ///< verification wall time, summed

    double
    avgLatencyMs() const
    {
        return completed ? totalLatencyMs / double(completed) : 0.0;
    }
};

/** Outcome of ServeEngine::submit. */
struct Admission
{
    bool admitted = false;
    int retryAfterMs = 0;          ///< backoff hint when bounced
    std::future<Verdict> verdict;  ///< valid iff admitted
};

class ServeEngine
{
  public:
    /** Lanes start immediately on a dedicated ThreadPool. */
    ServeEngine(const CurveSystem12 &sys, const ServeOptions &opt);

    /** Drains the queue, delivers all pending verdicts, joins lanes. */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Admit one request (non-blocking). On a full queue the request
     * is NOT queued: admitted = false and retryAfterMs estimates when
     * capacity frees up (queue depth x observed batch service time).
     */
    Admission submit(const VerifyRequest &req);

    /** Block until every admitted request has its verdict. */
    void drain();

    ServeCounters counters() const;

    const ServeOptions &options() const { return opt_; }

    /** Verifier lanes actually running (resolveJobs of opt.jobs). */
    int lanes() const { return pool_.size(); }

  private:
    struct Pending
    {
        PairingCheck check;
        std::promise<Verdict> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void laneLoop();
    void runBatch(std::vector<Pending> batch, u64 seq);

    const CurveSystem12 &sys_;
    const ServeOptions opt_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< queue became non-empty / stop
    std::condition_variable drainCv_; ///< queue emptied / batch done
    std::deque<Pending> queue_;
    int inflight_ = 0; ///< batches currently verifying
    bool stop_ = false;
    u64 batchCounter_ = 0;
    double avgBatchMs_ = 25.0; ///< EWMA service time (retry hints)
    ServeCounters counters_;

    // Last member: lanes must die before any state above.
    ThreadPool pool_;
};

} // namespace finesse

#endif // FINESSE_SERVE_ENGINE_H_
