/**
 * @file
 * Wire protocol of the multi-process DSE fan-out: length-prefixed
 * binary frames carrying trace-key groups of design-point requests
 * from the master to worker subprocesses and DsePoint results back.
 *
 * Frame layout (all integers little-endian):
 *
 *     u32 magic   'FDSE' (0x45534446 on the wire)
 *     u8  type    FrameType
 *     u32 length  payload byte count (bounded by kMaxPayload)
 *     u8  payload[length]
 *
 * Payloads are encoded with WireWriter/WireReader (the shared binary
 * codec, support/bytecodec.h -- the persistent artifact cache encodes
 * its entries with the same primitives): fixed-width little-endian
 * integers, doubles as raw IEEE-754 bit patterns (the distributed
 * sweep must be BIT-identical to the in-process one, so no text
 * round-trip is ever allowed), strings and vectors as a u32 count
 * followed by the elements. Decoding is fully bounds-checked:
 * truncated, oversized or corrupted input throws FatalError -- never
 * undefined behavior -- which the fuzz tests (tests/test_wire.cpp)
 * exercise under ASan/UBSan.
 */
#ifndef FINESSE_DSE_WIRE_H_
#define FINESSE_DSE_WIRE_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "dse/explorer.h"
#include "support/bytecodec.h"

namespace finesse {
namespace wire {

constexpr u32 kMagic = 0x45534446u; // "FDSE" little-endian
constexpr size_t kHeaderBytes = 9;  // magic + type + length
/** Upper bound on one payload; larger length fields are rejected. */
constexpr size_t kMaxPayload = 64u << 20;

enum class FrameType : u8 {
    GroupRequest = 1, ///< master -> worker: one trace-key group
    GroupResult = 2,  ///< worker -> master: the group's DsePoints
    WorkerError = 3,  ///< worker -> master: fatal worker-side error
    Hello = 4,        ///< worker -> master: version/catalog handshake
    Ping = 5,         ///< master -> worker: liveness probe
    Pong = 6,         ///< worker -> master: probe reply / heartbeat
};

/**
 * Protocol version carried by Hello. Bump on ANY wire-visible change
 * (frame layout, field order, enum values): the master rejects
 * workers announcing a different version, which is what makes
 * mixed-build pools fail fast instead of corrupting results.
 * Version 2 = version 1 (PR 5 group frames) + handshake/liveness.
 * Version 3 = version 2 without CompileOptions::jobs in requests.
 */
constexpr u32 kProtocolVersion = 3;

/** One trace-key group shipped to a worker. */
struct GroupRequest
{
    std::string curve;
    u64 groupId = 0;
    std::vector<DseRequest> requests;
};

/** The evaluated group, points in request order. */
struct GroupResult
{
    u64 groupId = 0;
    std::vector<DsePoint> points;
};

/** Worker-side failure (configuration error, not a crash). */
struct WorkerError
{
    u64 groupId = 0;
    std::string message;
};

/**
 * First frame a worker sends after exec: the master verifies the
 * protocol version and curve-catalog fingerprint before dispatching
 * any work (heterogeneous builds are rejected at spawn, not after a
 * silently-divergent sweep).
 */
struct Hello
{
    u32 version = 0;
    u64 catalogHash = 0;
};

/** Liveness probe; the worker echoes the sequence number in a Pong. */
struct Ping
{
    u64 seq = 0;
};

/**
 * Probe reply or unsolicited heartbeat (seq 0): any Pong -- like any
 * frame bytes at all -- counts as liveness progress for the sender.
 */
struct Pong
{
    u64 seq = 0;
};

// The payload encoder/decoder pair moved to support/bytecodec.h so
// the artifact cache shares one bit-exact codec with the wire; the
// historical wire-local names remain the protocol-facing aliases.
using WireWriter = ByteWriter;
using WireReader = ByteReader;

/** One parsed frame (header validated, payload not yet decoded). */
struct Frame
{
    FrameType type = FrameType::GroupRequest;
    std::vector<u8> payload;
};

/**
 * Incremental frame assembler for a byte stream: append() raw pipe
 * reads, next() pops complete frames. A malformed header (bad magic,
 * unknown type, oversized length) throws FatalError -- the stream is
 * poisoned and the peer must be dropped. The oversized-length check
 * happens at HEADER-decode time, before any payload is buffered or
 * allocated: a garbage length prefix from a remote peer poisons the
 * stream instead of driving a multi-gigabyte allocation.
 */
class FrameBuffer
{
  public:
    void
    append(const u8 *data, size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    bool next(Frame &out);

    /**
     * Tighten the per-frame payload cap below kMaxPayload (never
     * above). The distributor caps an unauthenticated peer at a few
     * KB until its Hello is admitted -- version/hash frames are tiny,
     * so anything larger pre-handshake is garbage by definition.
     */
    void
    maxPayload(size_t cap)
    {
        maxPayload_ = std::min(cap, kMaxPayload);
    }

    /** Bytes of a not-yet-complete trailing frame (EOF diagnostics). */
    size_t pendingBytes() const { return buf_.size() - pos_; }

  private:
    std::vector<u8> buf_;
    size_t pos_ = 0;
    size_t maxPayload_ = kMaxPayload;
};

/** Serialize a complete frame (header + payload). */
std::vector<u8> encodeFrame(FrameType type,
                            const std::vector<u8> &payload);

// Shared sub-encoders (also used by the fuzz tests).
void putRequest(WireWriter &w, const DseRequest &req);
DseRequest getRequest(WireReader &r);
void putPoint(WireWriter &w, const DsePoint &p);
DsePoint getPoint(WireReader &r);

std::vector<u8> encodeGroupRequest(const GroupRequest &msg);
std::vector<u8> encodeGroupResult(const GroupResult &msg);
std::vector<u8> encodeWorkerError(const WorkerError &msg);
std::vector<u8> encodeHello(const Hello &msg);
std::vector<u8> encodePing(const Ping &msg);
std::vector<u8> encodePong(const Pong &msg);

/** Payload decoders; throw FatalError on any malformed input. */
GroupRequest decodeGroupRequest(const std::vector<u8> &payload);
GroupResult decodeGroupResult(const std::vector<u8> &payload);
WorkerError decodeWorkerError(const std::vector<u8> &payload);
Hello decodeHello(const std::vector<u8> &payload);
Ping decodePing(const std::vector<u8> &payload);
Pong decodePong(const std::vector<u8> &payload);

} // namespace wire
} // namespace finesse

#endif // FINESSE_DSE_WIRE_H_
