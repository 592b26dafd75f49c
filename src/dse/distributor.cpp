/**
 * @file
 * Master/worker implementation of the fault-tolerant distributed
 * sweep.
 *
 * Master: groups requests by front-end trace key, builds a pool of
 * worker CONNECTIONS -- locally spawned workers dialing back over
 * loopback TCP, or remote `dse-worker --listen` peers named by a host
 * pool -- and runs a poll() loop with finite timeouts. Workers are admitted by
 * a Hello handshake (protocol version + curve-catalog hash) before any
 * dispatch; until the Hello is validated the slot's frame buffer is
 * capped to a few KB, so an unauthenticated peer cannot drive a large
 * allocation with a forged length prefix. A group is in flight on at
 * most one worker, and a worker holds at most one group. A worker that
 * hits EOF, poisons its stream (bad frame) or misses its liveness
 * deadline is terminated (SIGKILL + reap locally; socket close for a
 * remote, whose abandoned result then has nowhere to land -- which is
 * what keeps re-dispatch safe), and its in-flight group is re-queued
 * at the FRONT of the pending list under a per-group retry budget with
 * capped exponential backoff. A worker that is slow but heartbeating
 * keeps its group until it answers. A lost worker is never replaced:
 * a slot whose connect fails (refused remote, failed local spawn)
 * stays dead, and its share of the work goes to the live workers.
 * When a group exhausts its retries or the pool empties, the
 * remainder is evaluated in-process via Explorer::evaluateAll.
 * Results are scattered into the output by original request index, so
 * the merge is the same index-ordered reduction as
 * Explorer::evaluateAll.
 *
 * Worker: sends Hello, then a blocking read loop. Each GroupRequest
 * is evaluated with Explorer::evaluateAll(requests, jobs=1) -- the
 * batched TracePrep/BackendScratch path -- under a heartbeat thread
 * (unsolicited Pongs every kHeartbeatMs, so a busy-but-healthy worker
 * is never mistaken for a hung one) and answered with one GroupResult
 * frame; Pings are answered with Pongs. A FINESSE_DSE_FAULT plan in
 * the environment injects crashes/hangs/corruption at scripted points
 * (the chaos harness of tests/test_chaos_dse.cpp); its NETWORK-kind
 * actions (drop/trunc/delay/refuse) are instead executed master-side
 * by the chaos proxy (dse/chaosproxy.h).
 */
#include "dse/distributor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "curve/catalog.h"
#include "dse/chaosproxy.h"
#include "support/connection.h"
#include "support/numparse.h"
#include "support/socket.h"
#include "support/splitlist.h"
#include "support/subprocess.h"

namespace finesse {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/** Worker heartbeat period; masters time out after many multiples. */
constexpr int kHeartbeatMs = 100;

/** Floor on the handshake deadline: exec under sanitizers is slow. */
constexpr int kHandshakeFloorMs = 5000;

/** Liveness default when neither the option nor the env is set. */
constexpr int kDefaultLivenessMs = 10000;

/** Longest silence before a worker is pinged; shorter liveness
 *  windows ping at a third of the window, so every window probes a
 *  silent worker before killing it. */
constexpr int kMaxPingIntervalMs = 1000;

/** Re-dispatch backoff: base delay, doubling per retry, capped. */
constexpr i64 kRetryBackoffMs = 50;
constexpr i64 kRetryBackoffCapMs = 2000;

/**
 * Frame-payload cap for a peer that has not completed its handshake:
 * a Hello is ~20 bytes, so anything beyond a few KB before admission
 * is garbage and poisons the stream instead of allocating.
 */
constexpr size_t kPreHelloPayloadCap = 4096;

/** FINESSE_DSE_LIVENESS_MS, or the default when unset or empty; a
 *  value that is not a positive integer is fatal, naming the var. */
int
livenessFromEnv()
{
    const char *text = std::getenv(kLivenessEnv);
    if (text == nullptr || *text == '\0')
        return kDefaultLivenessMs;
    const std::optional<int> ms = parseInt(text, 1);
    if (!ms)
        fatal(kLivenessEnv, ": not a positive integer of ms: '", text,
              "'");
    return *ms;
}

i64
msUntil(Clock::time_point t, Clock::time_point now)
{
    return std::chrono::duration_cast<milliseconds>(t - now).count();
}

/** Capped exponential backoff before a group's @p retries-th retry. */
milliseconds
backoffAfter(int retries)
{
    const int shift = std::min(retries - 1, 20);
    return milliseconds(
        std::min(kRetryBackoffCapMs, kRetryBackoffMs << shift));
}

/** One pending/in-flight trace-key group. */
struct Group
{
    std::vector<size_t> indices;
    int retries = 0;
    bool completed = false;
    Clock::time_point eligibleAt{}; ///< retry-backoff gate
};

/** One entry of the worker pool: a remote endpoint or a local slot. */
struct HostState
{
    HostPort addr;
    bool local = false; ///< the "local" pool token: pin a local slot
};

struct WorkerSlot
{
    enum class State {
        Dead,      ///< not running (never connected / declared dead)
        Handshake, ///< connected, Hello not yet validated
        Idle,      ///< admitted, no group in flight
        Busy,      ///< evaluating a group
    };

    std::unique_ptr<Connection> conn;
    wire::FrameBuffer frames;
    State state = State::Dead;
    long group = -1; ///< in-flight group id, -1 = none
    Clock::time_point lastProgress{}; ///< last whole frame read (any type)
    Clock::time_point lastPingAt{};
};

} // namespace

std::string
DistributorStats::describe() const
{
    std::ostringstream os;
    os << "groups=" << groups << " dispatched=" << dispatches
       << " retried=" << redispatches << " | workers spawned="
       << workersSpawned << " died=" << workerDeaths << " (signaled="
       << workersSignaled << " exited=" << workersExited
       << " timeout-kills=" << timeoutKills << " handshake-rejects="
       << handshakeFailures << ") | remote connects=" << remoteConnects
       << " connect-fails=" << remoteConnectFailures << " net-faults="
       << networkFaultsInjected << " | fallback-local="
       << fallbackGroups << " groups/" << fallbackPoints
       << " points | pings=" << pingsSent << " pongs="
       << pongsReceived;
    return os.str();
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    const auto parseIndex = [&](const std::string &text,
                                const std::string &term) {
        const std::optional<int> v = parseInt(text, 0);
        if (!v)
            fatal("fault plan: bad index '", text, "' in '", term, "'");
        return *v;
    };

    for (const std::string &term : splitList(spec, ';')) {
        const size_t at = term.find('@');
        if (at == std::string::npos)
            fatal("fault plan: missing '@' in '", term, "'");
        const std::string action = term.substr(0, at);
        const std::string site = term.substr(at + 1);

        FaultAction fa;
        if (action == "kill") {
            fa.kind = FaultAction::Kind::Kill;
        } else if (action == "hang") {
            fa.kind = FaultAction::Kind::Hang;
        } else if (action == "garbage") {
            fa.kind = FaultAction::Kind::Garbage;
        } else if (action == "bad_version") {
            fa.kind = FaultAction::Kind::BadHelloVersion;
        } else if (action == "bad_hash") {
            fa.kind = FaultAction::Kind::BadHelloHash;
        } else if (action == "drop") {
            fa.kind = FaultAction::Kind::Drop;
        } else if (action == "trunc") {
            fa.kind = FaultAction::Kind::Truncate;
        } else if (action == "refuse") {
            fa.kind = FaultAction::Kind::Refuse;
        } else if (action.rfind("stall_ms=", 0) == 0) {
            fa.kind = FaultAction::Kind::Stall;
            fa.stallMs = parseIndex(action.substr(9), term);
        } else if (action.rfind("delay_ms=", 0) == 0) {
            fa.kind = FaultAction::Kind::Delay;
            fa.stallMs = parseIndex(action.substr(9), term);
        } else {
            fatal("fault plan: unknown action '", action, "'");
        }

        if (site == "hello") {
            fa.site = FaultAction::Site::Hello;
        } else if (site == "connect") {
            fa.site = FaultAction::Site::Connect;
        } else if (site.rfind("group:", 0) == 0) {
            fa.site = FaultAction::Site::Group;
            fa.index = parseIndex(site.substr(6), term);
        } else if (site.rfind("frame:", 0) == 0) {
            fa.site = FaultAction::Site::Frame;
            fa.index = parseIndex(site.substr(6), term);
        } else {
            fatal("fault plan: unknown site '", site, "'");
        }
        plan.actions.push_back(fa);
    }
    return plan;
}

FaultAction *
FaultPlan::fire(FaultAction::Site site, int index)
{
    for (FaultAction &fa : actions) {
        if (fa.fired || fa.site != site)
            continue;
        if (fa.site != FaultAction::Site::Hello && fa.index != index)
            continue;
        fa.fired = true;
        return &fa;
    }
    return nullptr;
}

FaultPlan
FaultPlan::keep(bool networkKinds) const
{
    FaultPlan out;
    for (const FaultAction &fa : actions) {
        if (fa.isNetworkKind() == networkKinds)
            out.actions.push_back(fa);
    }
    return out;
}

std::string
helloRejectReason(const wire::Hello &hello)
{
    if (hello.version != wire::kProtocolVersion) {
        std::ostringstream os;
        os << "protocol version mismatch: worker v" << hello.version
           << ", master v" << wire::kProtocolVersion;
        return os.str();
    }
    if (hello.catalogHash != catalogHash()) {
        std::ostringstream os;
        os << "curve-catalog hash mismatch: worker 0x" << std::hex
           << hello.catalogHash << ", master 0x" << catalogHash()
           << " (heterogeneous builds cannot share a sweep)";
        return os.str();
    }
    return {};
}

std::vector<DsePoint>
distributeEvaluate(const std::string &curve,
                   const std::vector<DseRequest> &points, int workers,
                   const DistributorOptions &opts)
{
    FINESSE_REQUIRE(workers >= 1, "dse workers must be >= 1");
    DistributorStats localStats;
    DistributorStats &stats = opts.stats ? *opts.stats : localStats;
    std::vector<DsePoint> out(points.size());
    if (points.empty())
        return out;

    // Group by front-end trace key (groupByTraceKey: the SAME
    // grouping the in-process engine applies) so one dispatch
    // amortizes the worker-side trace + prep across every point that
    // shares it.
    std::vector<Group> groups;
    for (std::vector<size_t> &indices : groupByTraceKey(curve, points))
        groups.push_back({std::move(indices)});
    stats.groups = groups.size();

    const std::vector<std::string> cmd = {selfExePath(), "dse-worker"};

    const int livenessMs = opts.livenessTimeoutMs > 0
                               ? opts.livenessTimeoutMs
                               : livenessFromEnv();
    const int handshakeMs = std::max(livenessMs, kHandshakeFloorMs);
    const int pingMs = std::clamp(livenessMs / 3, 1, kMaxPingIntervalMs);

    // Remote pool: explicit option, then the environment, else
    // all-local. parseHostPort is fatal on typos -- a malformed host
    // list must not silently shrink the pool.
    std::vector<HostState> hosts;
    {
        std::vector<std::string> specs = opts.hosts;
        if (specs.empty()) {
            const char *env = std::getenv(kHostsEnv);
            specs = splitList(env ? env : "");
        }
        for (const std::string &spec : specs) {
            if (spec.empty())
                continue;
            HostState h;
            if (spec == "local")
                h.local = true;
            else
                h.addr = parseHostPort(spec);
            hosts.push_back(std::move(h));
        }
    }

    std::atomic<int> netFaultsFired{0};

    // Network fault plans: an explicit per-slot network plan is
    // proxy-side BY DEFINITION -- every action in it runs on the
    // wire, including `garbage` (which doubles as a worker kind when
    // it appears in a worker plan). The shared ambient
    // FINESSE_DSE_FAULT splits by KIND instead: workers run their
    // half, the proxy lifts out only the network-kind terms -- and
    // only when no explicit worker plans pin the slots (a test that
    // pins its workers expects no ambient interference at all).
    const bool explicitWorkerPlans = !opts.workerFaultPlans.empty();
    const char *ambientSpec = std::getenv(kFaultPlanEnv);

    // Bring slot w up once: its remote host when one is assigned,
    // else a local worker. A failed connect leaves the slot dead for
    // the whole sweep; the live slots (or in-process evaluation)
    // carry its share.
    const auto connectSlot = [&](WorkerSlot &ws, size_t w) {
        FaultPlan net;
        if (!opts.networkFaultPlans.empty())
            net = FaultPlan::parse(
                opts.networkFaultPlans[w % opts.networkFaultPlans.size()]);
        else if (!explicitWorkerPlans && ambientSpec)
            net = FaultPlan::parse(ambientSpec).keep(true);
        // Scripted connect refusal (chaos): the failure itself is the
        // point -- exercise the master's reaction without needing an
        // actually-unreachable host.
        if (net.fire(FaultAction::Site::Connect, 0)) {
            ++stats.networkFaultsInjected;
            return;
        }

        std::unique_ptr<Connection> conn;
        std::string err;
        const HostState *host =
            hosts.empty() ? nullptr : &hosts[w % hosts.size()];
        if (host && !host->local) {
            conn = connectTcpWorker(host->addr, handshakeMs, &err);
            if (!conn) {
                ++stats.remoteConnectFailures;
                std::fprintf(stderr, "distributed sweep: %s\n",
                             err.c_str());
                return;
            }
            ++stats.remoteConnects;
        } else {
            // An explicit plan (even an empty one) is always exported
            // so it shadows any ambient FINESSE_DSE_FAULT: chaos tests
            // pin exactly which slots fault no matter what CI injects.
            std::vector<std::string> env;
            if (explicitWorkerPlans)
                env.push_back(std::string(kFaultPlanEnv) + "=" +
                              opts.workerFaultPlans
                                  [w % opts.workerFaultPlans.size()]);
            conn = spawnLoopbackTcpConnection(cmd, env, handshakeMs, &err);
            if (!conn) {
                std::fprintf(stderr,
                             "distributed sweep: local worker: %s\n",
                             err.c_str());
                return;
            }
        }

        // Stream-level chaos: wrap ANY connection in the fault proxy
        // when frame-site actions are scripted.
        if (!net.empty())
            conn = wrapWithChaosProxy(std::move(conn), std::move(net),
                                      &netFaultsFired);

        ws.conn = std::move(conn);
        ws.frames.maxPayload(kPreHelloPayloadCap);
        ws.state = WorkerSlot::State::Handshake;
        ws.lastProgress = Clock::now();
        ws.lastPingAt = ws.lastProgress;
        ++stats.workersSpawned;
    };

    std::vector<WorkerSlot> pool(
        std::min(static_cast<size_t>(workers), groups.size()));
    for (size_t w = 0; w < pool.size(); ++w)
        connectSlot(pool[w], w);

    std::deque<size_t> pending;
    for (size_t g = 0; g < groups.size(); ++g)
        pending.push_back(g);
    size_t completed = 0;

    // In-process evaluation of a group nobody is left to run, on the
    // same batched engine a worker would use -- identical bits.
    std::optional<Explorer> localEx;
    const auto evaluateLocally = [&](size_t g) {
        if (!localEx)
            localEx.emplace(curve);
        Group &grp = groups[g];
        std::vector<DseRequest> reqs;
        reqs.reserve(grp.indices.size());
        for (size_t idx : grp.indices)
            reqs.push_back(points[idx]);
        std::vector<DsePoint> res = localEx->evaluateAll(reqs, 1);
        for (size_t k = 0; k < grp.indices.size(); ++k)
            out[grp.indices[k]] = std::move(res[k]);
        grp.completed = true;
        ++completed;
        ++stats.fallbackGroups;
        stats.fallbackPoints += grp.indices.size();
    };

    // An orphaned group (its worker died) re-enters the queue at the
    // FRONT, gated by capped exponential backoff, so a re-dispatched
    // group is never starved by the backlog. Bounded per group, so a
    // group that kills every worker it touches ends up in-process.
    const auto requeueOrFallback = [&](size_t g, Clock::time_point now) {
        Group &grp = groups[g];
        if (grp.retries >= opts.maxGroupRetries) {
            evaluateLocally(g);
            return;
        }
        ++grp.retries;
        ++stats.redispatches;
        grp.eligibleAt = now + backoffAfter(grp.retries);
        pending.push_front(g);
    };

    // Declared dead: terminate (SIGKILL + immediate reap for a local
    // child -- a long sweep must not accumulate zombies; socket close
    // for a remote) and re-queue any in-flight group.
    const auto declareDead = [&](WorkerSlot &ws, bool timedOut) {
        const bool signaled = ws.conn && ws.conn->terminate();
        ws.conn.reset();
        if (signaled)
            ++stats.workersSignaled;
        else
            ++stats.workersExited;
        ++stats.workerDeaths;
        if (timedOut)
            ++stats.timeoutKills;
        if (ws.state == WorkerSlot::State::Handshake)
            ++stats.handshakeFailures;
        const long g = ws.group;
        ws.state = WorkerSlot::State::Dead;
        ws.group = -1;
        if (g >= 0)
            requeueOrFallback(static_cast<size_t>(g), Clock::now());
    };

    const auto dispatchTo = [&](WorkerSlot &ws, size_t g,
                                Clock::time_point now) -> bool {
        wire::GroupRequest msg;
        msg.curve = curve;
        msg.groupId = g;
        msg.requests.reserve(groups[g].indices.size());
        for (size_t idx : groups[g].indices)
            msg.requests.push_back(points[idx]);
        const std::vector<u8> frame = encodeGroupRequest(msg);
        if (!ws.conn->writeAll(frame.data(), frame.size()))
            return false; // caller declares the worker dead
        ws.state = WorkerSlot::State::Busy;
        ws.group = static_cast<long>(g);
        ws.lastProgress = now; // liveness clock restarts per dispatch
        ++stats.dispatches;
        return true;
    };

    std::vector<u8> chunk(1 << 16);
    u64 pingSeq = 0;

    while (completed < groups.size()) {
        Clock::time_point now = Clock::now();

        // (1) Deadlines: kill workers with no whole frame inside their
        // liveness window (handshakes get the floored window). A
        // worker silent for pingMs gets a Ping first.
        for (WorkerSlot &ws : pool) {
            if (ws.state == WorkerSlot::State::Handshake) {
                if (msUntil(ws.lastProgress + milliseconds(handshakeMs),
                            now) <= 0)
                    declareDead(ws, true);
                continue;
            }
            if (ws.state == WorkerSlot::State::Dead)
                continue;
            if (msUntil(ws.lastProgress + milliseconds(livenessMs),
                        now) <= 0) {
                declareDead(ws, true);
                continue;
            }
            const Clock::time_point lastTouch =
                std::max(ws.lastProgress, ws.lastPingAt);
            if (msUntil(lastTouch + milliseconds(pingMs), now) <= 0) {
                wire::Ping ping;
                ping.seq = ++pingSeq;
                const std::vector<u8> probe = wire::encodePing(ping);
                if (!ws.conn->writeAll(probe.data(), probe.size())) {
                    declareDead(ws, false);
                    continue;
                }
                ws.lastPingAt = now;
                ++stats.pingsSent;
            }
        }

        // (2) Pool empty: finish the sweep in-process.
        const bool anyAlive = std::any_of(
            pool.begin(), pool.end(), [](const WorkerSlot &ws) {
                return ws.state != WorkerSlot::State::Dead;
            });
        if (!anyAlive) {
            for (size_t g = 0; g < groups.size(); ++g) {
                if (!groups[g].completed)
                    evaluateLocally(g);
            }
            pending.clear();
            break;
        }

        now = Clock::now();

        // (3) Dispatch: hand each idle worker the next
        // backoff-eligible pending group.
        for (WorkerSlot &ws : pool) {
            if (ws.state != WorkerSlot::State::Idle)
                continue;
            size_t g = groups.size();
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (msUntil(groups[*it].eligibleAt, now) <= 0) {
                    g = *it;
                    pending.erase(it);
                    break;
                }
            }
            if (g < groups.size() && !dispatchTo(ws, g, now)) {
                pending.push_front(g); // never sent: no retry charge
                declareDead(ws, false);
            }
        }

        if (completed >= groups.size())
            break;

        // (4) Finite poll timeout from the next deadline: liveness
        // windows, ping due times and retry-backoff gates all wake the
        // loop exactly when they mature.
        i64 timeoutMs = 1000;
        for (const WorkerSlot &ws : pool) {
            switch (ws.state) {
              case WorkerSlot::State::Dead:
                break; // gone for good
              case WorkerSlot::State::Handshake:
                timeoutMs = std::min(
                    timeoutMs,
                    msUntil(ws.lastProgress + milliseconds(handshakeMs),
                            now));
                break;
              case WorkerSlot::State::Idle:
              case WorkerSlot::State::Busy: {
                timeoutMs = std::min(
                    timeoutMs,
                    msUntil(ws.lastProgress + milliseconds(livenessMs),
                            now));
                const Clock::time_point lastTouch =
                    std::max(ws.lastProgress, ws.lastPingAt);
                timeoutMs = std::min(
                    timeoutMs,
                    msUntil(lastTouch + milliseconds(pingMs), now));
                break;
              }
            }
        }
        for (const size_t g : pending)
            timeoutMs =
                std::min(timeoutMs, msUntil(groups[g].eligibleAt, now));
        timeoutMs = std::clamp<i64>(timeoutMs, 0, 60000);

        std::vector<pollfd> fds;
        std::vector<size_t> fdWorker;
        for (size_t w = 0; w < pool.size(); ++w) {
            if (pool[w].state == WorkerSlot::State::Dead)
                continue;
            fds.push_back({pool[w].conn->pollFd(), POLLIN, 0});
            fdWorker.push_back(w);
        }
        if (fds.empty())
            continue; // dispatch killed the last worker: fall back
                      // at the top of the loop

        int rc;
        do {
            rc = ::poll(fds.data(), fds.size(),
                        static_cast<int>(timeoutMs));
        } while (rc < 0 && errno == EINTR);
        if (rc < 0)
            fatal("distributed sweep: poll: ", std::strerror(errno));
        if (rc == 0)
            continue; // a deadline matured; top of loop enforces it

        // (5) Drain readable workers. The try block only PARSES: a
        // decode failure poisons the stream, nothing more --
        // declareDead (whose fallback evaluation must run outside any
        // frame-parsing context) runs strictly after it.
        // A WorkerError frame is a DETERMINISTIC failure a retry
        // cannot fix -> propagate.
        for (size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents == 0)
                continue;
            WorkerSlot &ws = pool[fdWorker[f]];
            if (ws.state == WorkerSlot::State::Dead)
                continue; // killed earlier in this drain pass
            const long r =
                ws.conn->readSome(chunk.data(), chunk.size());
            if (r == kReadAgainFd)
                continue; // spurious wakeup: alive, just no data yet
            if (r <= 0) {
                declareDead(ws, false);
                continue;
            }
            now = Clock::now();
            ws.frames.append(chunk.data(), static_cast<size_t>(r));

            std::optional<std::string> workerError;
            std::optional<std::string> helloReject;
            bool poisoned = false;
            try {
                wire::Frame frame;
                while (!poisoned && !helloReject &&
                       ws.frames.next(frame)) {
                    // Liveness counts whole frames, not bytes: a
                    // desynced stream fed by ping replies that never
                    // completes a frame must still time out.
                    ws.lastProgress = now;
                    switch (frame.type) {
                      case wire::FrameType::Hello: {
                        if (ws.state !=
                            WorkerSlot::State::Handshake) {
                            poisoned = true; // duplicate Hello
                            break;
                        }
                        const wire::Hello hello =
                            wire::decodeHello(frame.payload);
                        const std::string reason =
                            helloRejectReason(hello);
                        if (!reason.empty()) {
                            helloReject = reason;
                        } else {
                            ws.state = WorkerSlot::State::Idle;
                            // Admitted: results may be real payloads.
                            ws.frames.maxPayload(wire::kMaxPayload);
                        }
                        break;
                      }
                      case wire::FrameType::Pong:
                        wire::decodePong(frame.payload);
                        ++stats.pongsReceived;
                        break;
                      case wire::FrameType::WorkerError:
                        workerError =
                            wire::decodeWorkerError(frame.payload)
                                .message;
                        break;
                      case wire::FrameType::GroupResult: {
                        wire::GroupResult res =
                            wire::decodeGroupResult(frame.payload);
                        if (ws.state != WorkerSlot::State::Busy ||
                            res.groupId !=
                                static_cast<u64>(ws.group)) {
                            poisoned = true; // result out of protocol
                            break;
                        }
                        Group &grp = groups[res.groupId];
                        if (res.points.size() != grp.indices.size()) {
                            poisoned = true; // corrupt point count
                            break;
                        }
                        for (size_t k = 0; k < grp.indices.size(); ++k)
                            out[grp.indices[k]] = std::move(res.points[k]);
                        grp.completed = true;
                        ++completed;
                        ws.state = WorkerSlot::State::Idle;
                        ws.group = -1;
                        break;
                      }
                      case wire::FrameType::GroupRequest:
                      case wire::FrameType::Ping:
                        poisoned = true; // echoed master frame
                        break;
                    }
                    if (workerError)
                        break;
                }
            } catch (const std::exception &) {
                // Any parse failure -- FatalError from the decoders,
                // bad_alloc from a corrupt stream -- poisons the
                // worker; the sweep itself survives via re-dispatch.
                poisoned = true;
            }
            if (workerError)
                fatal("dse worker failed: ", *workerError);
            if (helloReject) {
                std::fprintf(stderr,
                             "distributed sweep: rejecting worker "
                             "(%s): %s\n",
                             ws.conn->describe().c_str(),
                             helloReject->c_str());
                declareDead(ws, false);
                continue;
            }
            if (poisoned)
                declareDead(ws, false);
        }
    }

    for (WorkerSlot &ws : pool) {
        if (!ws.conn) {
            ws.state = WorkerSlot::State::Dead;
            continue;
        }
        switch (ws.state) {
          case WorkerSlot::State::Dead:
            break;
          case WorkerSlot::State::Busy:
          case WorkerSlot::State::Handshake:
            // A worker that never finished its handshake (possibly
            // hung before Hello): a graceful EOF wait could deadlock.
            // Terminate. (Busy cannot occur here: every group is
            // complete, and a busy worker holds an incomplete one.)
            ws.conn->terminate();
            break;
          case WorkerSlot::State::Idle:
            ws.conn->finish(); // EOF -> worker exits its read loop
            break;
        }
        ws.conn.reset();
        ws.state = WorkerSlot::State::Dead;
    }
    stats.networkFaultsInjected +=
        netFaultsFired.load(std::memory_order_relaxed);
    return out;
}

namespace {

/** Serializes all worker->master writes (read loop + heartbeats). */
class WorkerOutput
{
  public:
    explicit WorkerOutput(int fd) : fd_(fd) {}

    bool
    send(const std::vector<u8> &frame)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return writeAllFd(fd_, frame.data(), frame.size());
    }

  private:
    int fd_;
    std::mutex mu_;
};

/**
 * Scoped heartbeat: unsolicited Pong frames every kHeartbeatMs for as
 * long as the object lives. Wrapped around group evaluation (and
 * injected stalls) so the master can tell busy from hung.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(WorkerOutput &out) : out_(out)
    {
        thread_ = std::thread([this] { run(); });
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            if (cv_.wait_for(lock, milliseconds(kHeartbeatMs),
                             [this] { return stop_; }))
                return;
            lock.unlock();
            wire::Pong beat; // seq 0 = unsolicited
            // A failed write means the master is gone; the read loop
            // will see EOF/EPIPE and exit -- nothing to do here.
            out_.send(wire::encodePong(beat));
            lock.lock();
        }
    }

    WorkerOutput &out_;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

[[noreturn]] void
hangForever()
{
    // A hung worker: no heartbeats, no EOF, no progress. Only the
    // master's liveness deadline (SIGKILL) ends this.
    for (;;)
        std::this_thread::sleep_for(std::chrono::hours(1));
}

/** Execute a Kill/Hang/Garbage/Stall action at its trigger point. */
void
runWorkerFault(const FaultAction &fa, WorkerOutput &out)
{
    switch (fa.kind) {
      case FaultAction::Kind::Kill:
        ::raise(SIGKILL);
        break;
      case FaultAction::Kind::Hang:
        hangForever();
      case FaultAction::Kind::Garbage: {
        // Junk that can never parse as a frame header: poisons the
        // master-side stream, which must drop us, not crash.
        const std::vector<u8> junk(32, 0xA5);
        out.send(junk);
        break;
      }
      case FaultAction::Kind::Stall: {
        // A straggler, not a corpse: heartbeats keep flowing, so the
        // master waits it out.
        Heartbeat beat(out);
        std::this_thread::sleep_for(milliseconds(fa.stallMs));
        break;
      }
      case FaultAction::Kind::BadHelloVersion:
      case FaultAction::Kind::BadHelloHash:
        break; // hello-site only; meaningless elsewhere
      case FaultAction::Kind::Drop:
      case FaultAction::Kind::Truncate:
      case FaultAction::Kind::Delay:
      case FaultAction::Kind::Refuse:
        break; // network kinds: the master-side proxy runs these
    }
}

} // namespace

int
runDseWorker(int fd)
{
    // A master that died mid-sweep must surface as a failed write
    // (-> clean worker exit), not as a fatal SIGPIPE.
    ignoreSigpipe();
    const char *faultSpec = std::getenv(kFaultPlanEnv);
    // keep(false): network-kind terms in a shared spec belong to the
    // master-side chaos proxy, not to us.
    FaultPlan plan =
        FaultPlan::parse(faultSpec ? faultSpec : "").keep(false);
    WorkerOutput out(fd);

    // Handshake: always the first frame on the stream.
    {
        wire::Hello hello;
        hello.version = wire::kProtocolVersion;
        hello.catalogHash = catalogHash();
        if (FaultAction *fa = plan.fire(FaultAction::Site::Hello, 0)) {
            if (fa->kind == FaultAction::Kind::BadHelloVersion)
                hello.version += 1000;
            else if (fa->kind == FaultAction::Kind::BadHelloHash)
                hello.catalogHash ^= 0x1;
            else
                runWorkerFault(*fa, out);
        }
        if (!out.send(wire::encodeHello(hello)))
            return 1;
    }

    wire::FrameBuffer frames;
    std::vector<u8> chunk(1 << 16);
    u64 currentGroup = 0;
    int framesSeen = 0;
    int groupsSeen = 0;
    try {
        for (;;) {
            const long r = readSomeFd(fd, chunk.data(), chunk.size());
            if (r == 0)
                return 0; // clean shutdown: master closed our stream
            if (r == kReadAgainFd) {
                // Nonblocking fd with nothing buffered: wait for
                // data instead of treating the lull as an error.
                pollfd pfd = {fd, POLLIN, 0};
                (void)::poll(&pfd, 1, -1);
                continue;
            }
            if (r < 0)
                fatal("dse worker: read: ", std::strerror(errno));
            frames.append(chunk.data(), static_cast<size_t>(r));

            wire::Frame frame;
            while (frames.next(frame)) {
                if (FaultAction *fa =
                        plan.fire(FaultAction::Site::Frame, framesSeen))
                    runWorkerFault(*fa, out);
                ++framesSeen;

                if (frame.type == wire::FrameType::Ping) {
                    wire::Pong pong;
                    pong.seq = wire::decodePing(frame.payload).seq;
                    if (!out.send(wire::encodePong(pong)))
                        return 1; // master is gone
                    continue;
                }
                if (frame.type != wire::FrameType::GroupRequest)
                    fatal("dse worker: unexpected frame type ",
                          static_cast<int>(frame.type));
                const wire::GroupRequest req =
                    wire::decodeGroupRequest(frame.payload);
                currentGroup = req.groupId;
                if (FaultAction *fa = plan.fire(
                        FaultAction::Site::Group, groupsSeen)) {
                    ++groupsSeen;
                    runWorkerFault(*fa, out);
                    if (fa->kind == FaultAction::Kind::Garbage)
                        continue; // junk instead of the result
                } else {
                    ++groupsSeen;
                }

                wire::GroupResult res;
                res.groupId = req.groupId;
                {
                    // Heartbeats cover the expensive part (curve
                    // setup + trace + batched evaluation), so a
                    // legitimately slow group never reads as hung.
                    Heartbeat beat(out);
                    Explorer ex(req.curve);
                    // Serial per group: process-level parallelism
                    // comes from N workers; identical results either
                    // way.
                    res.points = ex.evaluateAll(req.requests, 1);
                }
                if (!out.send(wire::encodeGroupResult(res)))
                    return 1; // master is gone
            }
        }
    } catch (const FatalError &e) {
        // Deterministic configuration error (unknown curve, bad
        // options): report it so the master aborts instead of
        // burning retries on a group that can never succeed.
        wire::WorkerError err;
        err.groupId = currentGroup;
        err.message = e.what();
        out.send(wire::encodeWorkerError(err));
        return 1;
    } catch (const std::exception &e) {
        // Possibly-transient failure (bad_alloc under memory
        // pressure, internal panic): exit WITHOUT a WorkerError
        // frame -- the master sees EOF and re-dispatches the group
        // to a live worker, which may well succeed.
        std::fprintf(stderr, "dse worker: %s\n", e.what());
        return 1;
    }
}

int
runDseWorkerListen(const std::string &listenSpec, int maxAccepts)
{
    ignoreSigpipe();
    const HostPort at = parseHostPort(listenSpec);
    std::string err;
    int boundPort = 0;
    // Backlog > 1: a second master can queue while one is served; it
    // waits for this worker's Hello until its handshake window runs
    // out, then declares us dead -- better than a refused connect.
    const int listenFd = tcpListen(at, 4, &err, &boundPort);
    if (listenFd < 0) {
        std::fprintf(stderr, "dse-worker: %s\n", err.c_str());
        return 1;
    }
    HostPort bound = at;
    bound.port = boundPort;
    // The banner is the port-discovery contract: with --listen=H:0
    // the caller learns the ephemeral port from stdout.
    std::printf("dse-worker listening on %s\n",
                bound.describe().c_str());
    std::fflush(stdout);

    for (int served = 0; maxAccepts < 0 || served < maxAccepts;
         ++served) {
        const int fd = tcpAccept(listenFd, -1, &err);
        if (fd < 0) {
            std::fprintf(stderr, "dse-worker: accept: %s\n",
                         err.c_str());
            ::close(listenFd);
            return 1;
        }
        // Serve this master to completion. Its disconnect -- clean
        // EOF or abandonment -- ends runDseWorker (a failed session
        // is not fatal to the server) and we RE-LISTEN for the next
        // master with a fresh fault-plan parse.
        runDseWorker(fd);
        ::close(fd);
    }
    ::close(listenFd);
    return 0;
}

int
runDseWorkerConnect(const std::string &connectSpec)
{
    ignoreSigpipe();
    std::string err;
    const int fd =
        tcpConnect(parseHostPort(connectSpec), kDefaultLivenessMs,
                   &err);
    if (fd < 0) {
        std::fprintf(stderr, "dse-worker: %s\n", err.c_str());
        return 1;
    }
    const int rc = runDseWorker(fd);
    ::close(fd);
    return rc;
}

std::optional<int>
maybeRunDseWorkerMain(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "dse-worker") != 0)
        return std::nullopt;
    std::string listen, connect;
    int maxAccepts = -1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--listen=", 0) == 0) {
            listen = arg.substr(9);
        } else if (arg.rfind("--connect=", 0) == 0) {
            connect = arg.substr(10);
        } else if (arg.rfind("--max-accepts=", 0) == 0) {
            const std::optional<int> v = parseInt(arg.c_str() + 14, 1);
            if (!v) {
                std::fprintf(stderr,
                             "dse-worker: bad --max-accepts '%s'\n",
                             arg.c_str() + 14);
                return 2;
            }
            maxAccepts = *v;
        } else {
            std::fprintf(stderr, "dse-worker: unknown flag '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (listen.empty() == connect.empty()) {
        std::fprintf(stderr,
                     "usage: dse-worker --listen=host:port "
                     "[--max-accepts=N] | dse-worker "
                     "--connect=host:port (exactly one)\n");
        return 2;
    }
    if (!listen.empty())
        return runDseWorkerListen(listen, maxAccepts);
    return runDseWorkerConnect(connect);
}

} // namespace finesse
