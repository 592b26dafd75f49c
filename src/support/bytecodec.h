/**
 * @file
 * Little-endian binary payload codec shared by the persistent artifact
 * cache's trace entries (core/artifacts.h) and its design-point
 * entries (dse/wire.h).
 *
 * ByteWriter appends fixed-width little-endian integers, doubles as
 * raw IEEE-754 bit patterns (both consumers require BIT-identical
 * round trips -- no text encoding is ever allowed), and strings /
 * vectors as a u32 count followed by the elements. ByteReader is the
 * fully bounds-checked decoder over a borrowed byte range: truncated,
 * oversized or corrupted input throws FatalError -- never undefined
 * behavior -- and element counts are sanity-bounded by the bytes
 * actually present, so a corrupted count can never drive a huge
 * allocation or an out-of-bounds read.
 */
#ifndef FINESSE_SUPPORT_BYTECODEC_H_
#define FINESSE_SUPPORT_BYTECODEC_H_

#include <cstring>
#include <string>
#include <vector>

#include "support/common.h"

namespace finesse {

/** Append-only payload encoder (see file comment for the format). */
class ByteWriter
{
  public:
    void
    u8v(u8 v)
    {
        bytes_.push_back(v);
    }

    void
    u32v(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void
    u64v(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void i64v(i64 v) { u64v(static_cast<u64>(v)); }
    void i32v(i32 v) { u32v(static_cast<u32>(v)); }
    void boolv(bool v) { u8v(v ? 1 : 0); }

    /** Raw IEEE-754 bits: bit-identical round trip, NaNs included. */
    void
    f64v(double v)
    {
        u64 bits;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        u64v(bits);
    }

    void
    str(const std::string &s)
    {
        u32v(static_cast<u32>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::vector<u8> &bytes() const { return bytes_; }
    std::vector<u8> take() { return std::move(bytes_); }

  private:
    std::vector<u8> bytes_;
};

/**
 * Bounds-checked payload decoder over a borrowed byte range. Every
 * accessor validates the remaining length first and throws FatalError
 * on truncation.
 */
class ByteReader
{
  public:
    ByteReader(const u8 *data, size_t size) : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<u8> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {}

    size_t remaining() const { return size_ - pos_; }

    /** Decoders must consume the payload exactly; call when done. */
    void
    expectEnd() const
    {
        if (pos_ != size_)
            fatal("codec: ", size_ - pos_, " trailing bytes in payload");
    }

    u8
    u8v()
    {
        need(1);
        return data_[pos_++];
    }

    u32
    u32v()
    {
        need(4);
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    u64
    u64v()
    {
        need(8);
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    i64 i64v() { return static_cast<i64>(u64v()); }
    i32 i32v() { return static_cast<i32>(u32v()); }

    bool
    boolv()
    {
        const u8 v = u8v();
        if (v > 1)
            fatal("codec: bad bool byte ", static_cast<int>(v));
        return v == 1;
    }

    double
    f64v()
    {
        const u64 bits = u64v();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const u32 n = u32v();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /**
     * Element count for a vector whose elements occupy at least
     * @p minElemBytes each: rejects counts the remaining payload
     * cannot possibly hold.
     */
    u32
    count(size_t minElemBytes)
    {
        const u32 n = u32v();
        if (minElemBytes != 0 && n > remaining() / minElemBytes)
            fatal("codec: element count ", n, " exceeds payload");
        return n;
    }

  private:
    void
    need(size_t n) const
    {
        if (n > remaining())
            fatal("codec: truncated payload (need ", n, ", have ",
                  remaining(), ")");
    }

    const u8 *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace finesse

#endif // FINESSE_SUPPORT_BYTECODEC_H_
