/**
 * @file
 * BigInt implementation. Karatsuba multiplication (schoolbook below
 * kKaratsubaThresholdLimbs) and Knuth Algorithm D division with 64-bit
 * digits; ample for setup-time computations on values up to a few tens
 * of kilobits (p^24 for BLS24-509 is ~12.2 kbit).
 */
#include "bigint/bigint.h"

#include <algorithm>
#include <array>
#include <ostream>
#include <vector>

namespace finesse {

namespace {

/**
 * r[0 .. na+nb) = a * b, schoolbook. @p r must be zero-filled on entry.
 */
void
mulSchoolbookLimbs(u64 *r, const u64 *a, size_t na, const u64 *b, size_t nb)
{
    for (size_t i = 0; i < na; ++i) {
        u64 carry = 0;
        const u64 x = a[i];
        for (size_t j = 0; j < nb; ++j) {
            const u128 t = static_cast<u128>(x) * b[j] + r[i + j] + carry;
            r[i + j] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
        r[i + nb] = carry;
    }
}

/** r[0 .. rn) += x[0 .. xn); the carry must die inside r. */
void
addInto(u64 *r, size_t rn, const u64 *x, size_t xn)
{
    u64 carry = 0;
    size_t i = 0;
    for (; i < xn; ++i) {
        const u128 s = static_cast<u128>(r[i]) + x[i] + carry;
        r[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    for (; carry && i < rn; ++i) {
        r[i] += 1;
        carry = r[i] == 0;
    }
    FINESSE_CHECK(carry == 0, "addInto overflow");
}

/** r[0 .. rn) -= x[0 .. xn); requires r >= x as integers. */
void
subInto(u64 *r, size_t rn, const u64 *x, size_t xn)
{
    u64 borrow = 0;
    size_t i = 0;
    for (; i < xn; ++i) {
        const u64 y = x[i];
        const u64 d = r[i] - y;
        const u64 b1 = r[i] < y;
        const u64 d2 = d - borrow;
        const u64 b2 = d < borrow;
        r[i] = d2;
        borrow = b1 | b2;
    }
    for (; borrow && i < rn; ++i) {
        borrow = r[i] == 0;
        r[i] -= 1;
    }
    FINESSE_CHECK(borrow == 0, "subInto underflow");
}

/** Significant-limb count (trailing zeros dropped). */
size_t
sigLimbs(const u64 *a, size_t n)
{
    while (n > 0 && a[n - 1] == 0)
        --n;
    return n;
}

/**
 * r[0 .. na+nb) = a * b. @p r must be zero-filled on entry. Recursive
 * Karatsuba above kKaratsubaThresholdLimbs (measured on the smaller
 * operand), schoolbook below. Unbalanced operands are split along the
 * larger one until the halves can pair up.
 */
void
mulRecLimbs(u64 *r, const u64 *a, size_t na, const u64 *b, size_t nb)
{
    if (na < nb) {
        std::swap(a, b);
        std::swap(na, nb);
    }
    if (nb <= kKaratsubaThresholdLimbs) {
        mulSchoolbookLimbs(r, a, na, b, nb);
        return;
    }
    const size_t m = na / 2;
    if (nb <= m) {
        // b spans only the low split of a: two plain sub-products.
        //   r = a0 * b + (a1 * b) << 64m
        mulRecLimbs(r, a, m, b, nb);
        std::vector<u64> hi(na - m + nb, 0);
        mulRecLimbs(hi.data(), a + m, na - m, b, nb);
        addInto(r + m, na + nb - m, hi.data(), hi.size());
        return;
    }

    // Balanced Karatsuba: a = a1 << 64m | a0, b = b1 << 64m | b0.
    //   z0 = a0 b0, z2 = a1 b1, z1 = (a0+a1)(b0+b1) - z0 - z2
    //   r  = z0 + z1 << 64m + z2 << 128m
    const size_t na1 = na - m;
    const size_t nb1 = nb - m;
    std::vector<u64> z0(2 * m, 0);
    std::vector<u64> z2(na1 + nb1, 0);
    mulRecLimbs(z0.data(), a, m, b, m);
    mulRecLimbs(z2.data(), a + m, na1, b + m, nb1);

    const size_t sal = std::max(m, na1) + 1;
    const size_t sbl = std::max(m, nb1) + 1;
    std::vector<u64> sa(sal, 0);
    std::vector<u64> sb(sbl, 0);
    std::copy(a, a + m, sa.begin());
    addInto(sa.data(), sal, a + m, na1);
    std::copy(b, b + m, sb.begin());
    addInto(sb.data(), sbl, b + m, nb1);

    std::vector<u64> z1(sal + sbl, 0);
    mulRecLimbs(z1.data(), sa.data(), sal, sb.data(), sbl);
    subInto(z1.data(), z1.size(), z0.data(), z0.size());
    subInto(z1.data(), z1.size(), z2.data(), z2.size());

    std::copy(z0.begin(), z0.end(), r);
    std::copy(z2.begin(), z2.end(), r + 2 * m);
    // z1 << 64m fits: z1 = a0 b1 + a1 b0 < 2^(64 (na + nb - m)).
    addInto(r + m, na + nb - m, z1.data(), sigLimbs(z1.data(), z1.size()));
}

} // namespace

BigInt::BigInt(u64 v)
{
    if (v)
        limbs_.push_back(v);
}

BigInt::BigInt(i64 v)
{
    if (v < 0) {
        negative_ = true;
        // Negating INT64_MIN directly is UB; go through u64.
        limbs_.push_back(~static_cast<u64>(v) + 1);
    } else if (v > 0) {
        limbs_.push_back(static_cast<u64>(v));
    }
}

void
BigInt::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
    if (limbs_.empty())
        negative_ = false;
}

BigInt
BigInt::fromString(const std::string &text)
{
    FINESSE_REQUIRE(!text.empty(), "empty integer literal");
    size_t pos = 0;
    bool neg = false;
    if (text[pos] == '-') {
        neg = true;
        ++pos;
    } else if (text[pos] == '+') {
        ++pos;
    }
    BigInt result;
    if (text.size() - pos > 2 && text[pos] == '0' &&
        (text[pos + 1] == 'x' || text[pos + 1] == 'X')) {
        for (pos += 2; pos < text.size(); ++pos) {
            char c = text[pos];
            if (c == '_' || c == '\'')
                continue;
            u64 digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                digit = c - 'A' + 10;
            else
                fatal("bad hex digit '", c, "' in ", text);
            result = (result << 4) + BigInt(digit);
        }
    } else {
        for (; pos < text.size(); ++pos) {
            char c = text[pos];
            if (c == '_' || c == '\'')
                continue;
            FINESSE_REQUIRE(c >= '0' && c <= '9', "bad decimal digit in ",
                            text);
            result = result * BigInt(u64{10}) + BigInt(u64(c - '0'));
        }
    }
    result.negative_ = neg && !result.isZero();
    return result;
}

BigInt
BigInt::fromLimbs(const u64 *limbs, size_t n)
{
    BigInt r;
    r.limbs_.assign(limbs, limbs + n);
    r.trim();
    return r;
}

BigInt
BigInt::randomBits(Rng &rng, int bits)
{
    FINESSE_CHECK(bits > 0);
    BigInt r;
    const size_t words = (bits + 63) / 64;
    r.limbs_.resize(words);
    for (auto &w : r.limbs_)
        w = rng.next();
    const int top = bits - 64 * static_cast<int>(words - 1);
    // Mask the top limb and force the msb so the result has exactly `bits`
    // bits.
    if (top < 64)
        r.limbs_.back() &= (u64{1} << top) - 1;
    r.limbs_.back() |= u64{1} << (top - 1);
    r.trim();
    return r;
}

BigInt
BigInt::randomBelow(Rng &rng, const BigInt &bound)
{
    FINESSE_CHECK(!bound.isZero() && !bound.isNegative());
    const int bits = bound.bitLength();
    const size_t words = (bits + 63) / 64;
    const int top = bits - 64 * static_cast<int>(words - 1);
    const u64 mask = top >= 64 ? ~u64{0} : ((u64{1} << top) - 1);
    for (;;) {
        BigInt r;
        r.limbs_.resize(words);
        for (auto &w : r.limbs_)
            w = rng.next();
        r.limbs_.back() &= mask;
        r.trim();
        if (compareMagnitude(r, bound) < 0)
            return r;
    }
}

int
BigInt::bitLength() const
{
    if (limbs_.empty())
        return 0;
    const u64 top = limbs_.back();
    return static_cast<int>(limbs_.size() - 1) * 64 +
           (64 - __builtin_clzll(top));
}

int
BigInt::bit(int i) const
{
    if (i < 0)
        return 0;
    const size_t word = static_cast<size_t>(i) / 64;
    if (word >= limbs_.size())
        return 0;
    return (limbs_[word] >> (i % 64)) & 1;
}

void
BigInt::toLimbs(u64 *out, size_t n) const
{
    FINESSE_CHECK(limbs_.size() <= n, "value too wide: ", limbs_.size(),
                  " limbs into ", n);
    for (size_t i = 0; i < n; ++i)
        out[i] = limb(i);
}

double
BigInt::toDouble() const
{
    double v = 0;
    for (size_t i = limbs_.size(); i-- > 0;)
        v = v * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
    return negative_ ? -v : v;
}

int
BigInt::compareMagnitude(const BigInt &a, const BigInt &b)
{
    if (a.limbs_.size() != b.limbs_.size())
        return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
        if (a.limbs_[i] != b.limbs_[i])
            return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
    return 0;
}

BigInt
BigInt::addMagnitude(const BigInt &a, const BigInt &b)
{
    BigInt r;
    const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
    r.limbs_.resize(n + 1, 0);
    u64 carry = 0;
    for (size_t i = 0; i < n; ++i) {
        const u64 x = a.limb(i);
        const u64 y = b.limb(i);
        const u64 s = x + y;
        const u64 c1 = s < x;
        const u64 s2 = s + carry;
        const u64 c2 = s2 < s;
        r.limbs_[i] = s2;
        carry = c1 | c2;
    }
    r.limbs_[n] = carry;
    r.trim();
    return r;
}

BigInt
BigInt::subMagnitude(const BigInt &a, const BigInt &b)
{
    BigInt r;
    r.limbs_.resize(a.limbs_.size(), 0);
    u64 borrow = 0;
    for (size_t i = 0; i < a.limbs_.size(); ++i) {
        const u64 x = a.limb(i);
        const u64 y = b.limb(i);
        const u64 d = x - y;
        const u64 b1 = x < y;
        const u64 d2 = d - borrow;
        const u64 b2 = d < borrow;
        r.limbs_[i] = d2;
        borrow = b1 | b2;
    }
    FINESSE_CHECK(borrow == 0, "subMagnitude underflow");
    r.trim();
    return r;
}

BigInt
BigInt::operator-() const
{
    BigInt r = *this;
    if (!r.isZero())
        r.negative_ = !r.negative_;
    return r;
}

BigInt
BigInt::operator+(const BigInt &o) const
{
    if (negative_ == o.negative_) {
        BigInt r = addMagnitude(*this, o);
        r.negative_ = negative_ && !r.isZero();
        return r;
    }
    const int cmp = compareMagnitude(*this, o);
    if (cmp == 0)
        return BigInt();
    BigInt r = cmp > 0 ? subMagnitude(*this, o) : subMagnitude(o, *this);
    r.negative_ = (cmp > 0 ? negative_ : o.negative_) && !r.isZero();
    return r;
}

BigInt
BigInt::operator-(const BigInt &o) const
{
    return *this + (-o);
}

BigInt
BigInt::operator*(const BigInt &o) const
{
    if (isZero() || o.isZero())
        return BigInt();
    BigInt r;
    r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    mulRecLimbs(r.limbs_.data(), limbs_.data(), limbs_.size(),
                o.limbs_.data(), o.limbs_.size());
    r.negative_ = negative_ != o.negative_;
    r.trim();
    return r;
}

BigInt
BigInt::mulSchoolbook(const BigInt &a, const BigInt &b)
{
    if (a.isZero() || b.isZero())
        return BigInt();
    BigInt r;
    r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
    mulSchoolbookLimbs(r.limbs_.data(), a.limbs_.data(), a.limbs_.size(),
                       b.limbs_.data(), b.limbs_.size());
    r.negative_ = a.negative_ != b.negative_;
    r.trim();
    return r;
}

void
BigInt::divmod(const BigInt &a, const BigInt &b, BigInt &q, BigInt &r)
{
    FINESSE_REQUIRE(!b.isZero(), "division by zero");
    if (compareMagnitude(a, b) < 0) {
        q = BigInt();
        r = a;
        return;
    }
    if (b.limbs_.size() == 1) {
        // Single-limb fast path.
        const u64 d = b.limbs_[0];
        BigInt quo;
        quo.limbs_.resize(a.limbs_.size());
        u64 rem = 0;
        for (size_t i = a.limbs_.size(); i-- > 0;) {
            const u128 cur = (static_cast<u128>(rem) << 64) | a.limbs_[i];
            quo.limbs_[i] = static_cast<u64>(cur / d);
            rem = static_cast<u64>(cur % d);
        }
        quo.trim();
        quo.negative_ = (a.negative_ != b.negative_) && !quo.isZero();
        q = quo;
        r = BigInt(rem);
        r.negative_ = a.negative_ && !r.isZero();
        return;
    }

    // Knuth Algorithm D. Normalize so the top divisor limb has its msb set.
    const int shift = __builtin_clzll(b.limbs_.back());
    const BigInt u = a.abs() << shift;
    const BigInt v = b.abs() << shift;
    const size_t n = v.limbs_.size();
    const size_t m = u.limbs_.size() - n;

    std::vector<u64> un(u.limbs_);
    un.push_back(0); // extra headroom limb
    const std::vector<u64> &vn = v.limbs_;

    BigInt quo;
    quo.limbs_.assign(m + 1, 0);

    const u64 vTop = vn[n - 1];
    const u64 vNext = vn[n - 2];
    for (size_t j = m + 1; j-- > 0;) {
        // Estimate the quotient digit from the top limbs.
        const u128 numer = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
        u128 qhat = numer / vTop;
        u128 rhat = numer % vTop;
        while (qhat >> 64 ||
               static_cast<u128>(static_cast<u64>(qhat)) * vNext >
                   ((rhat << 64) | un[j + n - 2])) {
            --qhat;
            rhat += vTop;
            if (rhat >> 64)
                break;
        }
        // Multiply-subtract qhat * v from u[j .. j+n].
        u64 qd = static_cast<u64>(qhat);
        u128 borrow = 0;
        u128 carry = 0;
        for (size_t i = 0; i < n; ++i) {
            const u128 p = static_cast<u128>(qd) * vn[i] + carry;
            carry = p >> 64;
            const u64 pl = static_cast<u64>(p);
            const u64 ui = un[i + j];
            const u64 d = ui - pl - static_cast<u64>(borrow);
            borrow = (static_cast<u128>(ui) <
                      static_cast<u128>(pl) + static_cast<u64>(borrow))
                         ? 1
                         : 0;
            un[i + j] = d;
        }
        const u64 uTop = un[j + n];
        const u64 subtrahend = static_cast<u64>(carry) +
                               static_cast<u64>(borrow);
        un[j + n] = uTop - subtrahend;
        if (uTop < subtrahend) {
            // qhat was one too large; add v back.
            --qd;
            u64 c = 0;
            for (size_t i = 0; i < n; ++i) {
                const u64 s = un[i + j] + vn[i];
                const u64 c1 = s < un[i + j];
                const u64 s2 = s + c;
                const u64 c2 = s2 < s;
                un[i + j] = s2;
                c = c1 | c2;
            }
            un[j + n] += c;
        }
        quo.limbs_[j] = qd;
    }

    quo.trim();
    quo.negative_ = (a.negative_ != b.negative_) && !quo.isZero();

    BigInt rem;
    rem.limbs_.assign(un.begin(), un.begin() + n);
    rem.trim();
    rem = rem >> shift;
    rem.negative_ = a.negative_ && !rem.isZero();
    q = quo;
    r = rem;
}

BigInt
BigInt::operator/(const BigInt &o) const
{
    BigInt q, r;
    divmod(*this, o, q, r);
    return q;
}

BigInt
BigInt::operator%(const BigInt &o) const
{
    BigInt q, r;
    divmod(*this, o, q, r);
    return r;
}

BigInt
BigInt::mod(const BigInt &m) const
{
    BigInt r = *this % m;
    if (r.isNegative())
        r = r + m.abs();
    return r;
}

BigInt
BigInt::operator<<(int bits) const
{
    FINESSE_CHECK(bits >= 0);
    if (isZero() || bits == 0)
        return *this;
    const size_t words = static_cast<size_t>(bits) / 64;
    const int rem = bits % 64;
    BigInt r;
    r.negative_ = negative_;
    r.limbs_.assign(limbs_.size() + words + 1, 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
        r.limbs_[i + words] |= limbs_[i] << rem;
        if (rem)
            r.limbs_[i + words + 1] = limbs_[i] >> (64 - rem);
    }
    r.trim();
    return r;
}

BigInt
BigInt::operator>>(int bits) const
{
    FINESSE_CHECK(bits >= 0);
    const size_t words = static_cast<size_t>(bits) / 64;
    const int rem = bits % 64;
    if (words >= limbs_.size())
        return BigInt();
    BigInt r;
    r.negative_ = negative_;
    r.limbs_.assign(limbs_.size() - words, 0);
    for (size_t i = 0; i < r.limbs_.size(); ++i) {
        r.limbs_[i] = limbs_[i + words] >> rem;
        if (rem && i + words + 1 < limbs_.size())
            r.limbs_[i] |= limbs_[i + words + 1] << (64 - rem);
    }
    r.trim();
    return r;
}

std::strong_ordering
BigInt::operator<=>(const BigInt &o) const
{
    if (negative_ != o.negative_)
        return negative_ ? std::strong_ordering::less
                         : std::strong_ordering::greater;
    const int cmp = compareMagnitude(*this, o);
    const int signedCmp = negative_ ? -cmp : cmp;
    if (signedCmp < 0)
        return std::strong_ordering::less;
    if (signedCmp > 0)
        return std::strong_ordering::greater;
    return std::strong_ordering::equal;
}

BigInt
BigInt::abs() const
{
    BigInt r = *this;
    r.negative_ = false;
    return r;
}

BigInt
BigInt::pow(u64 e) const
{
    BigInt base = *this;
    BigInt result(u64{1});
    while (e) {
        if (e & 1)
            result = result * base;
        base = base * base;
        e >>= 1;
    }
    return result;
}

BigInt
BigInt::powMod(const BigInt &e, const BigInt &m) const
{
    FINESSE_REQUIRE(!m.isZero() && !m.isNegative(), "bad modulus");
    FINESSE_REQUIRE(!e.isNegative(), "negative exponent");
    BigInt base = mod(m);
    BigInt result(u64{1});
    result = result.mod(m);
    for (int i = e.bitLength(); i-- > 0;) {
        result = (result * result).mod(m);
        if (e.bit(i))
            result = (result * base).mod(m);
    }
    return result;
}

BigInt
BigInt::gcd(BigInt a, BigInt b)
{
    a = a.abs();
    b = b.abs();
    while (!b.isZero()) {
        BigInt r = a % b;
        a = b;
        b = r;
    }
    return a;
}

BigInt
BigInt::invMod(const BigInt &m) const
{
    // Extended Euclid on (a, m).
    BigInt a = mod(m);
    BigInt r0 = m.abs(), r1 = a;
    BigInt s0(u64{0}), s1(u64{1});
    while (!r1.isZero()) {
        BigInt q, r;
        divmod(r0, r1, q, r);
        BigInt s2 = s0 - q * s1;
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s2;
    }
    FINESSE_REQUIRE(r0 == BigInt(u64{1}), "invMod: arguments not coprime");
    return s0.mod(m);
}

BigInt
BigInt::isqrt() const
{
    FINESSE_REQUIRE(!isNegative(), "isqrt of negative value");
    if (isZero())
        return BigInt();
    // Newton iteration with a power-of-two seed above the root.
    BigInt x = BigInt(u64{1}) << ((bitLength() + 1) / 2);
    for (;;) {
        BigInt y = (x + *this / x) >> 1;
        if (y >= x)
            return x;
        x = y;
    }
}

BigInt
BigInt::divExact(const BigInt &o) const
{
    BigInt q, r;
    divmod(*this, o, q, r);
    FINESSE_CHECK(r.isZero(), "divExact with nonzero remainder");
    return q;
}

std::string
BigInt::toString() const
{
    if (isZero())
        return "0";
    std::string digits;
    BigInt v = abs();
    const BigInt ten(u64{10});
    while (!v.isZero()) {
        BigInt q, r;
        divmod(v, ten, q, r);
        digits.push_back(static_cast<char>('0' + r.low64()));
        v = q;
    }
    if (negative_)
        digits.push_back('-');
    std::reverse(digits.begin(), digits.end());
    return digits;
}

std::string
BigInt::toHexString() const
{
    if (isZero())
        return "0x0";
    static const char *hex = "0123456789abcdef";
    std::string out;
    for (size_t i = limbs_.size(); i-- > 0;) {
        for (int nib = 15; nib >= 0; --nib)
            out.push_back(hex[(limbs_[i] >> (nib * 4)) & 0xf]);
    }
    out.erase(0, out.find_first_not_of('0'));
    return (negative_ ? std::string("-0x") : std::string("0x")) + out;
}

std::ostream &
operator<<(std::ostream &os, const BigInt &v)
{
    return os << v.toString();
}

} // namespace finesse
