/**
 * @file
 * In-process fault-injecting proxy for the distributed sweep's
 * network chaos: a Connection wrapper that pumps bytes between the
 * master and the real transport through a socketpair + forwarder
 * thread, scanning the worker->master stream for frame boundaries
 * and executing network-kind FaultActions in transit --
 *
 *     drop@frame:N        close the connection mid-frame N (reset)
 *     trunc@frame:N       swallow frame N's tail, keep streaming
 *     delay_ms=T@frame:N  hold frame N for T ms (slow network)
 *     garbage@frame:N     inject junk bytes ahead of frame N
 *     refuse@connect      (handled by the distributor: the slot never
 *                         connects)
 *
 * The wrapper interposes on ANY Connection -- spawned local workers
 * and remote peers alike -- so the chaos matrix exercises the
 * master's poison/re-dispatch paths identically for both.
 * Faults the worker itself injects
 * (kill/hang/garbage worker-side) desync the stream mid-scan; the
 * proxy detects the unparseable header and degrades to transparent
 * byte forwarding rather than second-guessing a corrupted stream.
 */
#ifndef FINESSE_DSE_CHAOSPROXY_H_
#define FINESSE_DSE_CHAOSPROXY_H_

#include <atomic>
#include <memory>

#include "dse/distributor.h"
#include "support/connection.h"

namespace finesse {

/**
 * Wrap @p inner so @p plan's network-kind actions fire on the
 * worker->master frame stream. @p faultsFired (master-owned, read
 * after the sweep) counts actions that actually executed. Throws
 * FatalError when the socketpair cannot be created.
 */
std::unique_ptr<Connection>
wrapWithChaosProxy(std::unique_ptr<Connection> inner, FaultPlan plan,
                   std::atomic<int> *faultsFired);

} // namespace finesse

#endif // FINESSE_DSE_CHAOSPROXY_H_
