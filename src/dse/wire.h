/**
 * @file
 * Binary codec of one evaluated design point (DsePoint): the payload
 * of the artifact cache's per-point entries (dse/search.cpp).
 *
 * Encoded with the shared ByteWriter/ByteReader primitives
 * (support/bytecodec.h): fixed-width little-endian integers, doubles
 * as raw IEEE-754 bit patterns (a cached point must be BIT-identical
 * to a freshly evaluated one, so no text round-trip is ever allowed),
 * strings and vectors as a u32 count followed by the elements.
 * Decoding is fully bounds-checked: truncated or corrupted input
 * throws FatalError -- never undefined behavior -- which the fuzz
 * tests (tests/test_wire.cpp) exercise under ASan/UBSan.
 */
#ifndef FINESSE_DSE_WIRE_H_
#define FINESSE_DSE_WIRE_H_

#include "dse/explorer.h"
#include "support/bytecodec.h"

namespace finesse {
namespace wire {

/**
 * Version of the point encoding, carried in every point's artifact
 * key. Bump on ANY change to the bytes putPoint writes (field order,
 * enum values): old cache entries then miss instead of decoding
 * wrongly. It continues the numbering of the retired multi-process
 * protocol that first shared this encoding, so keys written before
 * that protocol was removed still hit.
 */
constexpr u32 kPointCodecVersion = 3;

void putPoint(ByteWriter &w, const DsePoint &p);
/** Throws FatalError on any malformed input. */
DsePoint getPoint(ByteReader &r);

} // namespace wire
} // namespace finesse

#endif // FINESSE_DSE_WIRE_H_
