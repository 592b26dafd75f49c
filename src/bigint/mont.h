/**
 * @file
 * Montgomery-domain modular arithmetic context. One MontCtx exists per
 * base field Fp and provides the CIOS multiplication that the paper's
 * mmul hardware unit implements in a Karatsuba-Wallace pipeline.
 *
 * Hot-path arithmetic dispatches through a per-width KernelVTable
 * (bigint/montkernel.h) chosen once at construction, so Fp and the whole
 * pairing tower run fully unrolled fixed-limb kernels with zero per-call
 * width branching. The table's multiply is the fused spare-top-bit CIOS
 * for every catalog modulus and wideMul + redc for a modulus without a
 * spare top bit. On x86-64 with BMI2+ADX, spare-top-bit contexts of the
 * two pairing widths run branch-free asm kernels for every table
 * operation -- add, sub, neg, mul, sqr and the Fp2 multiply and square:
 * 4-limb contexts skip the table and inline them, 6-limb contexts
 * select the 6-limb ADX table in its place. Without ADX those contexts
 * use the portable table like every other width. The
 * generic runtime-width loops remain available as
 * *Generic methods — they are the differential oracle for
 * tests/test_montkernel.cpp and the baseline for bench/micro_field_ops.
 *
 * Residue active-width contract: a Residue carries kMaxLimbs (10 limbs,
 * 640 bits: the widest catalog prime) of storage but only the low
 * limbCount() limbs are meaningful; the tail is zero-filled at
 * construction (Residue{} / Fp's member initializer) and no operation
 * ever writes beyond the active width, so the tail stays zero for the
 * lifetime of the value. Debug builds assert this on every operand. A
 * wider modulus is rejected at construction ("modulus too wide").
 *
 * isProbablePrime (Miller-Rabin) lives here too: it runs on MontCtx, so
 * its width limit is the same.
 */
#ifndef FINESSE_BIGINT_MONT_H_
#define FINESSE_BIGINT_MONT_H_

#include <array>

#include "bigint/bigint.h"
#include "bigint/limbs.h"
#include "bigint/montkernel.h"

namespace finesse {

/** Raw residue value: fixed storage, runtime active width. */
using Residue = std::array<u64, kMaxLimbs>;

/**
 * Montgomery multiplication context for an odd modulus p of at most
 * kMaxLimbs * 64 bits. Values handled by mul/sqr/... are residues in the
 * Montgomery domain (a * R mod p with R = 2^(64n)).
 */
class MontCtx
{
  public:
    /** Build a context for odd modulus @p p (p > 2). */
    explicit MontCtx(const BigInt &p);

    /** Active limb count n. */
    size_t limbCount() const { return n_; }

    /** Modulus as BigInt. */
    const BigInt &modulus() const { return p_; }

    /** Modulus bit length. */
    int bits() const { return bits_; }

    // Domain conversion ------------------------------------------------
    /** Standard integer (mod p) -> Montgomery domain. */
    Residue toMont(const BigInt &v) const;

    /** Montgomery domain -> standard integer in [0, p). */
    BigInt fromMont(const Residue &a) const;

    // Arithmetic (all inputs/outputs in Montgomery domain) --------------
    /** On 4-limb ADX contexts add, sub and neg inline the branch-free
     *  mask-select asm the Fp2 kernels use, like mul (through the
     *  table BN254N's Fp12 multiply took about 1.5x as long); other
     *  contexts take their table's kernel. */
    void
    add(Residue &r, const Residue &a, const Residue &b) const
    {
        checkTail(a.data());
        checkTail(b.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            addMod4Asm(r.data(), a.data(), b.data(), params());
            return;
#endif
          default:
            vt_->add(r.data(), a.data(), b.data(), params());
        }
    }

    void
    sub(Residue &r, const Residue &a, const Residue &b) const
    {
        checkTail(a.data());
        checkTail(b.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            subMod4Asm(r.data(), a.data(), b.data(), params());
            return;
#endif
          default:
            vt_->sub(r.data(), a.data(), b.data(), params());
        }
    }

    /** r = -a; on ADX contexts 0 - a, which leaves 0 at 0. */
    void
    neg(Residue &r, const Residue &a) const
    {
        checkTail(a.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            subMod4Asm(r.data(), kZero4, a.data(), params());
            return;
#endif
          default:
            vt_->neg(r.data(), a.data(), params());
        }
    }

    void
    mul(Residue &r, const Residue &a, const Residue &b) const
    {
        checkTail(a.data());
        checkTail(b.data());
        // Devirtualized fast path for the dominant pairing-curve width
        // (4 limbs, spare top bit) on x86-64 with BMI2+ADX: the
        // hand-scheduled dual-carry-chain asm kernel inlines straight
        // into Fp call sites, skipping the indirect call (add, sub and
        // neg inline the asm too). Every other context reaches its
        // kernel through the vtable, 6-limb ADX contexts the asm one.
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            montMulAdx4(r.data(), a.data(), b.data(), params());
            return;
#endif
          default:
            vt_->mul(r.data(), a.data(), b.data(), params());
        }
    }

    /** Dedicated squaring kernel (cross-product doubling); on the ADX
     *  fast path the asm multiplier outruns the portable squaring. */
    void
    sqr(Residue &r, const Residue &a) const
    {
        checkTail(a.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            montMulAdx4(r.data(), a.data(), a.data(), params());
            return;
#endif
          default:
            vt_->sqr(r.data(), a.data(), params());
        }
    }

    /**
     * (r0 + r1 u) = (a0 + a1 u)(b0 + b1 u) in Fp2 = Fp[u]/(u^2 - q) for
     * a small integer non-residue q: the context's one Fp2 multiply
     * (Karatsuba), picked at construction with the multiplier: the
     * 4-limb ADX one on montMulAdx4 is inlined like mul (through the
     * table it took about 1.5x as long on BN254N); other contexts take
     * their table's kernel. Outputs may alias inputs but not each other.
     */
    void
    fp2Mul(Residue &r0, Residue &r1, const Residue &a0, const Residue &a1,
           const Residue &b0, const Residue &b1, i64 q) const
    {
        checkTail(a0.data());
        checkTail(a1.data());
        checkTail(b0.data());
        checkTail(b1.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            fp2MulAdx4(r0.data(), r1.data(), a0.data(), a1.data(),
                       b0.data(), b1.data(), q, params());
            return;
#endif
          default:
            vt_->fp2Mul(r0.data(), r1.data(), a0.data(), a1.data(),
                        b0.data(), b1.data(), q, params());
        }
    }

    /** (r0 + r1 u) = (a0 + a1 u)^2 in Fp[u]/(u^2 - q): complex
     *  squaring, two products. Dispatch and aliasing as fp2Mul. */
    void
    fp2Sqr(Residue &r0, Residue &r1, const Residue &a0, const Residue &a1,
           i64 q) const
    {
        checkTail(a0.data());
        checkTail(a1.data());
        switch (fast_) {
#if FINESSE_HAVE_X86_ADX
          case FastPath::kAdx4:
            fp2SqrAdx4(r0.data(), r1.data(), a0.data(), a1.data(), q,
                       params());
            return;
#endif
          default:
            vt_->fp2Sqr(r0.data(), r1.data(), a0.data(), a1.data(), q,
                        params());
        }
    }

    /** r = a^e (e is a plain non-negative integer, not a residue). */
    void pow(Residue &r, const Residue &a, const BigInt &e) const;

    /**
     * r = a^-1 via binary extended GCD (zero maps to zero). For a
     * composite modulus and gcd(a, p) != 1 no inverse exists and zero
     * is returned.
     */
    void inv(Residue &r, const Residue &a) const;

    /** Fermat-ladder inverse a^(p-2): the historical path, kept as the
     *  differential oracle for inv (prime p only). */
    void invFermat(Residue &r, const Residue &a) const;

    /**
     * Vectorized batch inversion (Montgomery's trick): r[i] = a[i]^-1
     * for all i with ONE field inversion and 3(n-1) multiplications
     * instead of n inversions. Zero inputs map to zero (matching inv)
     * and are skipped by the product chain, so a zero does not poison
     * the batch. Results are bit-identical to per-element inv (the
     * fully-reduced inverse residue is unique). In-place operation
     * (r == a) is supported.
     */
    void batchInv(Residue *r, const Residue *a, size_t n) const;

    // Generic runtime-width oracle ---------------------------------------
    // One compiled loop serving every width; bit-identical results to
    // the fixed-limb kernels above. Used by differential tests and the
    // micro_field_ops speedup baseline.
    void addGeneric(Residue &r, const Residue &a, const Residue &b) const;
    void subGeneric(Residue &r, const Residue &a, const Residue &b) const;
    void negGeneric(Residue &r, const Residue &a) const;
    void mulGeneric(Residue &r, const Residue &a, const Residue &b) const;

    void
    sqrGeneric(Residue &r, const Residue &a) const
    {
        mulGeneric(r, a, a);
    }

    /** Montgomery representation of 1. */
    const Residue &one() const { return rModP_; }

    bool isZero(const Residue &a) const
    {
        return limbs::isZero(a.data(), n_);
    }

    bool
    equal(const Residue &a, const Residue &b) const
    {
        return limbs::cmp(a.data(), b.data(), n_) == 0;
    }

  private:
    MontParams
    params() const
    {
        return {pLimbs_.data(), pSquared_.data(), n0inv_};
    }

    /** Check limbs [limbCount(), kMaxLimbs) of the Residue at @p a. */
    void assertTailZero(const u64 *a) const;

    void
    checkTail([[maybe_unused]] const u64 *a) const
    {
#ifndef NDEBUG
        assertTailZero(a);
#endif
    }

#if FINESSE_HAVE_X86_ADX
    /** Zero minuend of the ADX neg. */
    static constexpr u64 kZero4[4] = {};
#endif

    /** Devirtualized hot paths for 4-limb spare-top-bit moduli. */
    enum class FastPath : u8
    {
        kNone = 0, ///< dispatch through the width vtable
        kAdx4,     ///< hand-scheduled x86-64 mulx/adcx/adox kernel
    };

    BigInt p_;
    size_t n_;           ///< active limb count
    int bits_;           ///< modulus bit length
    u64 n0inv_;          ///< -p^-1 mod 2^64
    const KernelVTable *vt_ = nullptr; ///< fixed-width kernel dispatch
    FastPath fast_ = FastPath::kNone;
    Residue pLimbs_{};   ///< modulus limbs
    Residue rModP_{};    ///< R mod p (Montgomery one)
    Residue r2ModP_{};   ///< R^2 mod p (for toMont)
    std::array<u64, 2 * kMaxLimbs> pSquared_{}; ///< p^2 (lazy Fp2 c0)
};

/**
 * Deterministic primality test: trial division by the primes up to 61,
 * then @p rounds Miller-Rabin rounds on MontCtx::pow/sqr with bases
 * drawn from a fixed-seed Rng, so a verdict never varies between runs.
 * @p n must fit a MontCtx: a value wider than kMaxLimbs * 64 bits is
 * refused ("modulus too wide"), whatever its size or parity.
 */
bool isProbablePrime(const BigInt &n, int rounds = 40);

} // namespace finesse

#endif // FINESSE_BIGINT_MONT_H_
