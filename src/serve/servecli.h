/**
 * @file
 * The `finesse_cli serve` and `finesse_cli verify-batch` entry
 * points (tools/finesse_cli.cpp stays a thin flag parser).
 *
 * serve — long-running operator loop. Startup warms the front end
 * (one Framework compile; with FINESSE_ARTIFACT_CACHE set a warm
 * server performs zero front-end traces — the banner prints the
 * exact count), then reads newline commands from stdin or from one
 * TCP client (--serve-port):
 *
 *   bls|kzg|zk N [corrupt=i,j]  submit N requests (optionally
 *                               corrupting the given 0-based indices),
 *                               wait, reply with the verdict string;
 *                               bounced submits back off by the
 *                               engine's retry-after hint and resubmit
 *   flood <kind> N              submit without waiting and WITHOUT
 *                               retrying — exercises admission
 *                               backpressure; replies admitted/bounced
 *   stats                       one-line counter snapshot
 *   drain                       block until all admitted verdicts land
 *   quit                        drain and exit 0 (EOF does the same)
 *
 * Replies are single lines starting with `ok`, `stats`, `drained`,
 * `flood` or `err` — greppable from CI and scriptable over a socket.
 *
 * verify-batch — one-shot synchronous mode: build the --workload
 * request mix, verify it with verifyBatch in consecutive chunks of
 * --batch requests (chunk i under the seed the engine gives its i-th
 * batch), and differential-check every verdict against per-request
 * single verification AND against the --corrupt expectation. Any
 * disagreement exits non-zero. No engine runs, so the batch count and
 * the printed product count are exact for a given mix, which CI
 * asserts.
 */
#ifndef FINESSE_SERVE_SERVECLI_H_
#define FINESSE_SERVE_SERVECLI_H_

#include <set>
#include <string>

#include "core/options.h"
#include "serve/engine.h"
#include "serve/workload.h"

namespace finesse {

/** Parsed command-line shape of `serve` / `verify-batch`. */
struct ServeCliOptions
{
    std::string curve = "BN254N";
    ServeOptions engine; ///< --batch/--queue/--jobs (verify-batch: --batch)
    int servePort = -1;        ///< >= 0: accept one TCP client (serve)
    std::string workload = "bls:16"; ///< verify-batch request mix
    std::string corrupt;       ///< verify-batch indices to corrupt
    CompileOptions compile;    ///< warmup compile (config-derived)
};

/** One parsed line of the `serve` command loop. */
struct ServeCommand
{
    enum class Op { None, Submit, Flood, Stats, Drain, Quit };
    Op op = Op::None; ///< None: blank or `#` comment line
    RequestKind kind = RequestKind::Bls; ///< Submit / Flood
    int count = 0;                       ///< Submit / Flood, >= 1
    std::set<int> corrupt; ///< Submit: indices to corrupt, each < count
};

/**
 * Parse one serve command line, with no I/O. Throws FatalError (the
 * loop replies `err <message>`) on anything malformed: the count and
 * index rules are verify-batch's.
 */
ServeCommand parseServeCommand(const std::string &line);

/** `kind:count,...` over bls|kzg|zk; throws FatalError on junk. */
std::vector<std::pair<RequestKind, int>>
parseWorkloadSpec(const std::string &spec);

int runServeCommand(const ServeCliOptions &opts);
int runVerifyBatchCommand(const ServeCliOptions &opts);

} // namespace finesse

#endif // FINESSE_SERVE_SERVECLI_H_
