/**
 * @file
 * Multi-process DSE fan-out: a master that ships trace-key groups of
 * design points to worker processes over TCP (Pando-style
 * coordinator/volunteer split: locally spawned workers are just
 * remote workers on 127.0.0.1) and a worker loop that evaluates the
 * groups on the in-process batched engine.
 *
 * Dispatch unit = one trace-key group (the PR 4 batching contract):
 * a worker receiving a group traces its key once through its own
 * process-wide cache and runs batched backend-only evaluation for
 * every point, so the per-trace prep amortizes remotely exactly as it
 * does on a local worker thread.
 *
 * Fault tolerance: every worker opens with a Hello handshake
 * (protocol version + curve-catalog hash; mismatched builds are
 * rejected before any dispatch), sends heartbeat Pongs while
 * evaluating, and answers master Pings. The master's poll() loop runs
 * on finite timeouts computed from the next liveness deadline; a
 * worker with no whole frame by its deadline is SIGKILLed and reaped,
 * its group re-queued under a per-group retry budget with capped
 * exponential backoff (50 ms doubling per retry, capped at 2 s). A
 * dead worker is never replaced: its group goes to a live worker, and
 * when retries or the pool run out the remaining groups are evaluated
 * in-process instead of failing the sweep. A slow worker that keeps
 * heartbeating is waited for: each group is in flight on at most one
 * worker, and nothing speculates on stragglers.
 *
 * Determinism contract: results are merged index-ordered into the
 * caller's request order, every point is computed by the same
 * deterministic code path as Explorer::evaluateAll, and all numeric
 * fields cross the wire as raw bit patterns -- the distributed sweep
 * is BIT-identical to the in-process one for any worker count and any
 * survivable fault plan (crashes, hangs, stream corruption, handshake
 * rejects), because re-dispatch and local fallback both rerun the
 * identical computation.
 */
#ifndef FINESSE_DSE_DISTRIBUTOR_H_
#define FINESSE_DSE_DISTRIBUTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "dse/explorer.h"
#include "dse/wire.h"

namespace finesse {

/** Observability counters of one distributed sweep (tests assert on
 *  the crash/timeout/re-dispatch paths through these). */
struct DistributorStats
{
    int workersSpawned = 0; ///< slots that connected (one per slot)
    int workerDeaths = 0;   ///< EOF / decode failure / liveness kill
    int redispatches = 0;   ///< groups re-queued after a death
    size_t groups = 0;      ///< trace-key groups in the sweep

    int dispatches = 0;         ///< group dispatches (incl. retries)
    int timeoutKills = 0;       ///< deaths caused by a missed deadline
    int handshakeFailures = 0;  ///< workers rejected at/before Hello
    int workersExited = 0;      ///< reaped deaths: normal exit
    int workersSignaled = 0;    ///< reaped deaths: killed by signal
    int fallbackGroups = 0;     ///< groups evaluated in-process
    size_t fallbackPoints = 0;  ///< points evaluated in-process
    int pingsSent = 0;          ///< liveness probes sent
    int pongsReceived = 0;      ///< probe replies + heartbeats

    int remoteConnects = 0;        ///< TCP worker connects that succeeded
    int remoteConnectFailures = 0; ///< refused/timed-out/unreachable
    int networkFaultsInjected = 0; ///< chaos-proxy faults that fired

    /** One-line human-readable rendering (finesse_cli dse). */
    std::string describe() const;
};

/** Env var holding the default remote host pool: comma-separated
 *  host:port entries; the token "local" pins a local slot. */
constexpr const char *kHostsEnv = "FINESSE_DSE_HOSTS";

/** Env var holding the default liveness window in ms (a positive
 *  integer; anything else is fatal). */
constexpr const char *kLivenessEnv = "FINESSE_DSE_LIVENESS_MS";

/**
 * Knobs of the distributed sweep (defaults are production behavior).
 * Local workers always re-exec the current binary as
 * `<self> dse-worker --connect=127.0.0.1:<port>` (see
 * maybeRunDseWorkerMain), so master and workers are the same build.
 */
struct DistributorOptions
{
    /** Re-dispatches allowed per group after worker deaths. */
    int maxGroupRetries = 2;

    /** Collects counters when non-null. */
    DistributorStats *stats = nullptr;

    /**
     * Kill a worker that delivers no whole frame (results, heartbeats
     * and ping replies all count) for this long; a worker silent for
     * min(1000, this / 3) ms is pinged first. 0 = read
     * FINESSE_DSE_LIVENESS_MS from the environment, defaulting to
     * 10000. Handshakes and connects get max(this, 5000) so
     * sanitizer-slowed exec never trips them.
     */
    int livenessTimeoutMs = 0;

    /**
     * Remote worker pool: "host:port" entries naming running
     * `dse-worker --listen` peers, or the token "local" pinning a
     * local slot (mixed pools). Empty = FINESSE_DSE_HOSTS env; both
     * empty = all-local pool. Slot w uses hosts[w % size]. A slot
     * whose connect fails stays dead for the sweep; the live slots
     * carry its share, and a pool that is all dead finishes
     * in-process.
     */
    std::vector<std::string> hosts;

    /**
     * Chaos injection (tests): per-slot FINESSE_DSE_FAULT plans,
     * assigned round-robin (slot w gets plans[w % size]). When
     * non-empty EVERY slot gets an explicit assignment -- an empty
     * string pins the slot fault-free, shielding it from any ambient
     * FINESSE_DSE_FAULT in the test environment.
     */
    std::vector<std::string> workerFaultPlans;

    /**
     * Network chaos (tests): per-slot fault plans executed by a
     * MASTER-SIDE proxy thread interposed on the slot's connection
     * (local or remote), round-robin like workerFaultPlans. Network
     * actions -- drop | trunc | delay_ms=<N> | garbage at frame:<N>
     * sites (worker->master frame ordinal), refuse at the connect
     * site -- corrupt the stream between healthy endpoints, the
     * failure mode worker-side plans cannot express. When empty, any
     * network-kind actions in the ambient FINESSE_DSE_FAULT are
     * lifted out and applied here (worker-kind actions still go to
     * the workers), so one env var scripts both sides.
     */
    std::vector<std::string> networkFaultPlans;
};

/**
 * One parsed fault-plan action (see FaultPlan). `fired` makes every
 * action one-shot.
 */
struct FaultAction
{
    enum class Kind {
        Kill,            ///< raise(SIGKILL): crash mid-protocol
        Hang,            ///< sleep forever, no heartbeats (hung worker)
        Garbage,         ///< write junk bytes (stream corruption)
        Stall,           ///< sleep stallMs WITH heartbeats (straggler)
        BadHelloVersion, ///< announce a wrong protocol version
        BadHelloHash,    ///< announce a wrong catalog hash
        // Network kinds, executed by the master-side chaos proxy
        // (workers skip them: they script the wire, not the peer).
        Drop,     ///< close the connection mid-frame (reset)
        Truncate, ///< swallow a frame's tail, keep the stream open
        Delay,    ///< stall a frame stallMs in transit (slow network)
        Refuse,   ///< fail the slot's connect/spawn outright
    };
    enum class Site {
        Group,   ///< on receipt of the index-th GroupRequest
        Frame,   ///< on receipt of the index-th frame of any type
        Hello,   ///< before the handshake is sent
        Connect, ///< at the slot's one connect (network kinds; no index)
    };
    Kind kind = Kind::Kill;
    Site site = Site::Group;
    int index = 0;   ///< 0-based trigger ordinal at the site
    int stallMs = 0; ///< Stall/Delay only
    bool fired = false;

    /** Kinds the chaos proxy executes (workers ignore them). */
    bool
    isNetworkKind() const
    {
        return kind == Kind::Drop || kind == Kind::Truncate ||
               kind == Kind::Delay || kind == Kind::Refuse;
    }
};

/**
 * Scriptable worker fault plan, parsed from FINESSE_DSE_FAULT by the
 * worker main. Grammar: semicolon-separated `action@site` terms,
 *
 *     FINESSE_DSE_FAULT="kill@group:2;hang@group:1;garbage@frame:3;
 *                        stall_ms=500@group:0;bad_hash@hello"
 *
 * where action is kill | hang | garbage | stall_ms=<N> | bad_version
 * | bad_hash | drop | trunc | delay_ms=<N> | refuse and site is
 * group:<N> | frame:<N> | hello | connect. Unparseable specs are
 * fatal (a chaos test with a typo must fail loudly, not silently run
 * fault-free). Worker kinds are executed by the worker that parsed
 * the plan; network kinds by the master-side chaos proxy -- each side
 * keep()s its half, so one spec can script both.
 */
struct FaultPlan
{
    std::vector<FaultAction> actions;

    static FaultPlan parse(const std::string &spec);

    /** First unfired action at @p site/@p index (marks it fired). */
    FaultAction *fire(FaultAction::Site site, int index);

    /** Plan reduced to network-kind (true) or worker-kind actions. */
    FaultPlan keep(bool networkKinds) const;

    bool empty() const { return actions.empty(); }
};

/** Environment variable carrying the worker fault plan. */
constexpr const char *kFaultPlanEnv = "FINESSE_DSE_FAULT";

/**
 * Why a worker's Hello must be rejected; empty string = accepted.
 * (The master's handshake check, exposed for the wire tests.)
 */
std::string helloRejectReason(const wire::Hello &hello);

/**
 * Evaluate @p points for @p curve on @p workers subprocesses; the
 * result vector is index-aligned with @p points and bit-identical to
 * Explorer::evaluateAll on the same requests. Any survivable fault
 * ends in re-dispatch or in-process evaluation; FatalError is reserved
 * for a worker-reported deterministic error (which a retry cannot
 * fix).
 */
std::vector<DsePoint>
distributeEvaluate(const std::string &curve,
                   const std::vector<DseRequest> &points, int workers,
                   const DistributorOptions &opts = {});

/**
 * Worker loop over the connected socket @p fd: send Hello, then read
 * frames until EOF -- GroupRequests are evaluated via
 * Explorer::evaluateAll (serial: process-level parallelism comes from
 * running N workers) under a heartbeat thread, Pings are answered
 * with Pongs -- streaming results back on the same socket. Returns
 * the process exit code (0 on clean EOF).
 */
int runDseWorker(int fd);

/**
 * Network worker: bind @p listenSpec ("host:port"; port 0 =
 * ephemeral), print a `dse-worker listening on host:port` banner on
 * stdout (how tests and scripts discover an ephemeral port), then
 * serve masters one at a time -- accept, run runDseWorker over the
 * socket, and RE-LISTEN when the master disconnects. Serves
 * @p maxAccepts masters before returning (-1 = forever; CI smoke and
 * the unit tests use a finite count for a clean exit).
 */
int runDseWorkerListen(const std::string &listenSpec,
                       int maxAccepts = -1);

/**
 * Locally spawned worker: connect back to the master's ephemeral
 * listener at @p connectSpec and run the worker loop over the socket.
 */
int runDseWorkerConnect(const std::string &connectSpec);

/**
 * Re-exec shim for binaries that act as their own worker pool: call
 * first thing in main(); when argv[1] == "dse-worker" this runs the
 * worker loop over a socket -- `--listen=host:port` (plus optional
 * `--max-accepts=N`) or `--connect=host:port`; neither is a usage
 * error (exit 2) -- and returns its exit code to pass to
 * return/exit, std::nullopt otherwise. finesse_cli, the distributed
 * tests and the fig10 bench all dispatch through this, so the
 * distributor's self re-exec always works.
 */
std::optional<int> maybeRunDseWorkerMain(int argc, char **argv);

} // namespace finesse

#endif // FINESSE_DSE_DISTRIBUTOR_H_
