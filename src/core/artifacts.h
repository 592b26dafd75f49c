/**
 * @file
 * Artifact-cache integration layer: the binary codec and key schema
 * that connect the persistent content-addressed DiskCache
 * (support/diskcache.h) to the compilation pipeline.
 *
 * Key schema. Every artifact key embeds:
 *
 *  - the semantic identity of the artifact (for front-end traces the
 *    canonical `Framework::traceKey`: curve | TracePart | front-end
 *    pipeline | variants),
 *  - the build/catalog fingerprint `catalogHash()`, so a catalog
 *    change invalidates every on-disk artifact, and
 *  - the artifact codec version, bumped on ANY change to the encoded
 *    byte layout OR to compiler behavior that alters traced modules
 *    (stale traces from an older compiler must read as misses, not
 *    as silently-wrong schedules).
 *
 * Payloads are encoded with the shared bit-exact binary codec
 * (support/bytecodec.h): integers little-endian, doubles as raw
 * IEEE-754 bits, so a cache round trip is indistinguishable from
 * recomputation.
 */
#ifndef FINESSE_CORE_ARTIFACTS_H_
#define FINESSE_CORE_ARTIFACTS_H_

#include <string>
#include <vector>

#include "compiler/passes.h"
#include "ir/ir.h"
#include "support/bytecodec.h"

namespace finesse {

/**
 * Bump on any encoded-layout or trace-affecting compiler change; part
 * of every artifact key, so old entries become unreachable (and are
 * eventually discarded by key-mismatch rejection on hash reuse).
 */
constexpr u32 kArtifactCodecVersion = 1;

/** catalogHash() folded with the codec version: the key fingerprint. */
u64 artifactFingerprint();

/** Disk key of a front-end trace with canonical trace key @p traceKey. */
std::string traceArtifactKey(const std::string &traceKey);

// BigInt <-> bytes (sign + limb vector), shared by the trace codec
// and any future artifact kind.
void putBigInt(ByteWriter &w, const BigInt &v);
BigInt getBigInt(ByteReader &r);

// OptStats <-> bytes. Also reused by the DsePoint codec
// (dse/wire.cpp) -- one definition, bit-identical everywhere.
void putOptStats(ByteWriter &w, const OptStats &s);
OptStats getOptStats(ByteReader &r);

/** Encode a traced+optimized module and its front-end pass stats. */
std::vector<u8> encodeTraceArtifact(const Module &m, const OptStats &stats);

/**
 * Decode a trace artifact. False (with a loud stderr warning) on any
 * malformed payload -- the caller treats it as a miss and re-traces.
 */
bool decodeTraceArtifact(const std::vector<u8> &bytes, Module &m,
                         OptStats &stats);

} // namespace finesse

#endif // FINESSE_CORE_ARTIFACTS_H_
