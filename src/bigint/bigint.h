/**
 * @file
 * Arbitrary-precision signed integer used throughout curve and pairing
 * setup: parameter derivation (p, r, t from the family polynomial),
 * cofactor computation via Frobenius-trace recurrences, final-exponentiation
 * exponent decomposition, Tonelli-Shanks preparation and primality testing.
 *
 * The hot paths of the library (Fp arithmetic) do not use BigInt; they use
 * the fixed-limb Montgomery kernels in bigint/mont.h.
 */
#ifndef FINESSE_BIGINT_BIGINT_H_
#define FINESSE_BIGINT_BIGINT_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "support/common.h"
#include "support/rng.h"

namespace finesse {

/**
 * Limb count of the smaller factor at and below which BigInt
 * multiplication uses the schoolbook loop; above it, operator* switches
 * to Karatsuba. Tuned empirically on x86-64 (crossover sits in the
 * 20-30 limb range; setup-path operands below ~16 limbs never split).
 */
inline constexpr size_t kKaratsubaThresholdLimbs = 24;

/**
 * Sign-magnitude arbitrary-precision integer with 64-bit limbs
 * (little-endian limb order). Value semantics throughout.
 */
class BigInt
{
  public:
    /** Zero. */
    BigInt() = default;

    /** From an unsigned 64-bit value. */
    BigInt(u64 v); // NOLINT(google-explicit-constructor)

    /** From a signed 64-bit value. */
    BigInt(i64 v); // NOLINT(google-explicit-constructor)

    BigInt(int v) : BigInt(static_cast<i64>(v)) {}

    /**
     * Parse from a string. Accepts optional leading '-', "0x" prefix for
     * hexadecimal, decimal otherwise.
     */
    static BigInt fromString(const std::string &text);

    /** From little-endian limb array (unsigned). */
    static BigInt fromLimbs(const u64 *limbs, size_t n);

    /** Uniform random integer in [0, bound). */
    static BigInt randomBelow(Rng &rng, const BigInt &bound);

    /** Uniform random integer with exactly @p bits bits (msb set). */
    static BigInt randomBits(Rng &rng, int bits);

    // Observers ------------------------------------------------------------
    bool isZero() const { return limbs_.empty(); }
    bool isNegative() const { return negative_; }
    bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
    bool isEven() const { return !isOdd(); }

    /** Number of significant bits of the magnitude (0 for zero). */
    int bitLength() const;

    /** Value of bit @p i of the magnitude (0 or 1). */
    int bit(int i) const;

    /** Number of significant limbs. */
    size_t limbCount() const { return limbs_.size(); }

    /** Limb @p i of the magnitude (0 beyond the end). */
    u64 limb(size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

    /** Copy magnitude into a fixed buffer, zero-padding to @p n limbs. */
    void toLimbs(u64 *out, size_t n) const;

    /** Lowest 64 bits of the magnitude. */
    u64 low64() const { return limb(0); }

    /** Convert to double (approximate, magnitude with sign). */
    double toDouble() const;

    // Arithmetic -----------------------------------------------------------
    BigInt operator-() const;
    BigInt operator+(const BigInt &o) const;
    BigInt operator-(const BigInt &o) const;
    BigInt operator*(const BigInt &o) const;

    /**
     * Quadratic schoolbook product, regardless of operand size. The
     * differential oracle for the Karatsuba path in operator*.
     */
    static BigInt mulSchoolbook(const BigInt &a, const BigInt &b);

    /** Quotient of truncated division (rounds toward zero). */
    BigInt operator/(const BigInt &o) const;

    /** Remainder of truncated division (sign follows the dividend). */
    BigInt operator%(const BigInt &o) const;

    /** Simultaneous quotient/remainder of truncated division. */
    static void divmod(const BigInt &a, const BigInt &b, BigInt &q,
                       BigInt &r);

    /** Euclidean remainder in [0, |m|). */
    BigInt mod(const BigInt &m) const;

    BigInt operator<<(int bits) const;
    BigInt operator>>(int bits) const;

    BigInt &operator+=(const BigInt &o) { return *this = *this + o; }
    BigInt &operator-=(const BigInt &o) { return *this = *this - o; }
    BigInt &operator*=(const BigInt &o) { return *this = *this * o; }

    std::strong_ordering operator<=>(const BigInt &o) const;
    bool operator==(const BigInt &o) const = default;

    /** |this|. */
    BigInt abs() const;

    /** this^e for small unsigned exponent. */
    BigInt pow(u64 e) const;

    /**
     * Modular exponentiation: this^e mod m (m > 0, e >= 0), by
     * schoolbook division. The differential oracle for MontCtx::pow in
     * tests; library code exponentiates on MontCtx.
     */
    BigInt powMod(const BigInt &e, const BigInt &m) const;

    /** Greatest common divisor of magnitudes. */
    static BigInt gcd(BigInt a, BigInt b);

    /** Modular inverse in [0, m); fatal if gcd(this, m) != 1. */
    BigInt invMod(const BigInt &m) const;

    /** Floor of the integer square root (requires non-negative value). */
    BigInt isqrt() const;

    /** Exact division; panics when the division has a remainder. */
    BigInt divExact(const BigInt &o) const;

    // Rendering ------------------------------------------------------------
    std::string toString() const;    ///< decimal
    std::string toHexString() const; ///< 0x-prefixed hexadecimal

    /**
     * FNV-1a over sign + magnitude limbs. Lets constant pools be
     * hash-interned (one unordered_map probe per lookup) instead of
     * ordered-map interned (O(log n) BigInt comparisons per lookup).
     */
    size_t
    hashValue() const
    {
        u64 h = 14695981039346656037ull ^
                (negative_ ? 0x9e3779b97f4a7c15ull : 0);
        for (u64 limb : limbs_) {
            h ^= limb;
            h *= 1099511628211ull;
        }
        return static_cast<size_t>(h);
    }

  private:
    static int compareMagnitude(const BigInt &a, const BigInt &b);
    static BigInt addMagnitude(const BigInt &a, const BigInt &b);
    /** Requires |a| >= |b|. */
    static BigInt subMagnitude(const BigInt &a, const BigInt &b);
    void trim();

    std::vector<u64> limbs_; ///< little-endian magnitude, no trailing zeros
    bool negative_ = false;  ///< sign (false for zero)
};

/** Hasher for BigInt-keyed unordered containers (constant interning). */
struct BigIntHash
{
    size_t
    operator()(const BigInt &v) const
    {
        return v.hashValue();
    }
};

std::ostream &operator<<(std::ostream &os, const BigInt &v);

} // namespace finesse

#endif // FINESSE_BIGINT_BIGINT_H_
