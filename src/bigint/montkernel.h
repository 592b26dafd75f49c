/**
 * @file
 * Fixed-limb Montgomery kernels: a MontKernel<N> template family whose
 * loop bounds are compile-time constants, so every curve width gets fully
 * unrolled, allocation-free multiplication, a dedicated squaring kernel
 * (cross-product doubling), unrolled linear ops, and the base field's
 * one Fp2 multiply and square (Fp[u]/(u^2 - q)): Karatsuba and complex
 * squaring over a split wideMul / redc pair, so each Fp2 coefficient
 * takes a single Montgomery reduction.
 *
 * MontCtx (bigint/mont.h) selects one KernelVTable per context at
 * construction — a single indirect call per operation replaces the
 * per-iteration runtime-width branching of the generic loop. Tables
 * exist only at the catalog's base-field widths, 4, 6, 7, 8 and 10
 * limbs, and only for moduli that leave a spare top bit (2p < R):
 * MontCtx pads any other modulus with zero limbs onto the next such
 * width (kernelWidth), so every table multiplies with the fused
 * single-scratch CIOS (mulSpareBit, the gnark "no-carry" shape) and
 * reduces its Fp2 kernels lazily. On x86-64 with BMI2+ADX (cpuHasAdx(),
 * checked at context construction) the two pairing widths run
 * hand-scheduled mulx/adcx/adox dual-carry-chain asm: a multiply that
 * also squares, branch-free add and sub (which also serve neg), and the
 * Fp2 kernels built on them. 4-limb contexts (BN254N) inline them at
 * every MontCtx call (montMulAdx4, addMod4Asm, subMod4Asm); 6-limb
 * contexts (BLS12-381) take a third table, kAdx6KernelVTable
 * (montMulAdx6, addMod6Asm, subMod6Asm). Without ADX both use the
 * portable table. The generic runtime-width implementation stays in
 * MontCtx as the differential oracle (mulGeneric/sqrGeneric/...);
 * tests/test_montkernel.cpp checks moduli of every natural width
 * 1..kMaxLimbs, padded or not, and both ADX kernel sets against it and
 * against BigInt reference arithmetic.
 *
 * Value contract: all kernel entry points take fully reduced Montgomery
 * residues (< p) and produce fully reduced residues, touching only the
 * low N limbs of their destination. Intermediate values inside the Fp2
 * kernels may exceed p (that is the point of lazy reduction); the
 * final conditional subtract restores the invariant before the value
 * escapes.
 */
#ifndef FINESSE_BIGINT_MONTKERNEL_H_
#define FINESSE_BIGINT_MONTKERNEL_H_

#include <bit>
#include <cstddef>

#include "bigint/limbs.h"
#include "support/common.h"

namespace finesse {

/**
 * Per-modulus constants a kernel needs, passed by reference so the same
 * instantiation serves every context of its width. pSquared (2N limbs,
 * p^2) turns the lazy Fp2 difference a0*b0 - a1*b1 non-negative when
 * it borrows.
 */
struct MontParams
{
    const u64 *p;        ///< modulus, N limbs
    const u64 *pSquared; ///< p^2, 2N limbs
    u64 n0inv;           ///< -p^-1 mod 2^64
};

/**
 * Fixed-width kernel family. All loops have constexpr trip counts; the
 * compiler unrolls and schedules them per width.
 */
template <size_t N>
struct MontKernel
{
    static_assert(N >= 1 && N <= kMaxLimbs);

    // Linear ops ---------------------------------------------------------

    static void
    add(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
    {
        u64 carry = 0;
        for (size_t i = 0; i < N; ++i) {
            const u128 t = static_cast<u128>(a[i]) + b[i] + carry;
            r[i] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
        condSub(r, prm.p, carry);
    }

    static void
    sub(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
    {
        u64 borrow = 0;
        for (size_t i = 0; i < N; ++i) {
            const u128 t = static_cast<u128>(a[i]) - b[i] - borrow;
            r[i] = static_cast<u64>(t);
            borrow = static_cast<u64>(-(t >> 64)) & 1;
        }
        if (borrow) {
            u64 carry = 0;
            for (size_t i = 0; i < N; ++i) {
                const u128 t = static_cast<u128>(r[i]) + prm.p[i] + carry;
                r[i] = static_cast<u64>(t);
                carry = static_cast<u64>(t >> 64);
            }
        }
    }

    static void
    neg(u64 *r, const u64 *a, const MontParams &prm)
    {
        u64 anyBit = 0;
        for (size_t i = 0; i < N; ++i)
            anyBit |= a[i];
        if (!anyBit) {
            for (size_t i = 0; i < N; ++i)
                r[i] = 0;
            return;
        }
        u64 borrow = 0;
        for (size_t i = 0; i < N; ++i) {
            const u128 t = static_cast<u128>(prm.p[i]) - a[i] - borrow;
            r[i] = static_cast<u64>(t);
            borrow = static_cast<u64>(-(t >> 64)) & 1;
        }
    }

    // Multiplicative ops -------------------------------------------------

    /**
     * r = a * b * R^-1 mod p, CIOS with the spare-top-bit optimization:
     * when p[N-1] <= 2^63 - 2 the running value never exceeds N limbs,
     * so the multiply and reduce passes fuse into one loop over an
     * N-word scratch with no overflow-limb bookkeeping. MontCtx pads
     * every modulus until the condition holds (kernelWidth).
     */
    static FINESSE_FORCE_INLINE void
    mulSpareBit(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
    {
        u64 t[N] = {0};
        for (size_t i = 0; i < N; ++i) {
            const u64 ai = a[i];
            u128 s = static_cast<u128>(ai) * b[0] + t[0];
            u64 c = static_cast<u64>(s >> 64);
            const u64 t0 = static_cast<u64>(s);
            const u64 m = t0 * prm.n0inv;
            u128 s2 = static_cast<u128>(m) * prm.p[0] + t0;
            u64 c2 = static_cast<u64>(s2 >> 64);
            for (size_t j = 1; j < N; ++j) {
                s = static_cast<u128>(ai) * b[j] + t[j] + c;
                c = static_cast<u64>(s >> 64);
                s2 = static_cast<u128>(m) * prm.p[j] +
                     static_cast<u64>(s) + c2;
                t[j - 1] = static_cast<u64>(s2);
                c2 = static_cast<u64>(s2 >> 64);
            }
            t[N - 1] = c + c2; // cannot overflow: value stays < 2p < R
        }
        for (size_t i = 0; i < N; ++i)
            r[i] = t[i];
        condSub(r, prm.p, 0);
    }

    /**
     * r = a^2 * R^-1 mod p: dedicated squaring, valid for any modulus.
     * The wide square needs only N(N+1)/2 word products (off-diagonal
     * cross products are doubled by a shift) instead of the N^2 of
     * wideMul, then one Montgomery reduction.
     */
    static FINESSE_FORCE_INLINE void
    sqr(u64 *r, const u64 *a, const MontParams &prm)
    {
        u64 t[2 * N];
        wideSqr(t, a);
        redc(r, t, prm);
    }

    // Lazy-reduction building blocks --------------------------------------

    /** t[0..2N) = a * b (plain wide product, no reduction). */
    static FINESSE_FORCE_INLINE void
    wideMul(u64 *t, const u64 *a, const u64 *b)
    {
        for (size_t i = 0; i < 2 * N; ++i)
            t[i] = 0;
        for (size_t i = 0; i < N; ++i) {
            u64 carry = 0;
            const u64 ai = a[i];
            for (size_t j = 0; j < N; ++j) {
                const u128 s =
                    static_cast<u128>(ai) * b[j] + t[i + j] + carry;
                t[i + j] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            t[i + N] = carry;
        }
    }

    /** t[0..2N) = a^2 via cross-product doubling. */
    static FINESSE_FORCE_INLINE void
    wideSqr(u64 *t, const u64 *a)
    {
        // Off-diagonal products a[i]*a[j], i < j. Row 0 writes its
        // limbs directly, so only the two limbs no row touches need
        // explicit zeroing.
        t[0] = 0;
        t[2 * N - 1] = 0;
        if constexpr (N >= 2) {
            u64 carry = 0;
            const u64 a0 = a[0];
            for (size_t j = 1; j < N; ++j) {
                const u128 s = static_cast<u128>(a0) * a[j] + carry;
                t[j] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            t[N] = carry;
        }
        for (size_t i = 1; i + 1 < N; ++i) {
            u64 carry = 0;
            const u64 ai = a[i];
            for (size_t j = i + 1; j < N; ++j) {
                const u128 s =
                    static_cast<u128>(ai) * a[j] + t[i + j] + carry;
                t[i + j] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            t[i + N] = carry;
        }
        // Single fused pass: double each limb (1-bit shift) and add the
        // diagonal a[i]^2 straddling limbs 2i, 2i+1.
        u64 shiftCarry = 0;
        u64 addCarry = 0;
        for (size_t i = 0; i < N; ++i) {
            const u128 d = static_cast<u128>(a[i]) * a[i];
            const u64 v0 = t[2 * i];
            const u128 s0 = static_cast<u128>((v0 << 1) | shiftCarry) +
                            static_cast<u64>(d) + addCarry;
            t[2 * i] = static_cast<u64>(s0);
            const u64 v1 = t[2 * i + 1];
            const u128 s1 = static_cast<u128>((v1 << 1) | (v0 >> 63)) +
                            static_cast<u64>(d >> 64) +
                            static_cast<u64>(s0 >> 64);
            t[2 * i + 1] = static_cast<u64>(s1);
            shiftCarry = v1 >> 63;
            addCarry = static_cast<u64>(s1 >> 64);
        }
        // a^2 fits exactly in 2N limbs; the last carry is always zero.
    }

    /**
     * r = t * R^-1 mod p, fully reduced, for a 2N-limb t < p * R (t is
     * clobbered). The result is below t / R + p < 2p, so one
     * conditional subtract finishes it. Each round's carry out of the
     * t[i+N] write is deferred to the next round's write one limb up
     * (carry2) instead of rippling through t.
     */
    static FINESSE_FORCE_INLINE void
    redc(u64 *r, u64 *t, const MontParams &prm)
    {
        u64 carry2 = 0;
        for (size_t i = 0; i < N; ++i) {
            const u64 m = t[i] * prm.n0inv;
            // j = 0: the low word of m*p[0] + t[i] is zero by choice of
            // m and t[i] is never read again — only the carry matters.
            u64 carry = static_cast<u64>(
                (static_cast<u128>(m) * prm.p[0] + t[i]) >> 64);
            for (size_t j = 1; j < N; ++j) {
                const u128 s =
                    static_cast<u128>(m) * prm.p[j] + t[i + j] + carry;
                t[i + j] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            const u128 s =
                static_cast<u128>(t[i + N]) + carry + carry2;
            t[i + N] = static_cast<u64>(s);
            carry2 = static_cast<u64>(s >> 64);
        }
        // Result = t[N..2N) + carry2 * R.
        for (size_t i = 0; i < N; ++i)
            r[i] = t[i + N];
        condSub(r, prm.p, carry2);
    }

    // Fp2 = Fp[u]/(u^2 - q) ----------------------------------------------
    //
    // The modulus leaves its top bit free (2p < R), so a sum of two
    // residues fits N limbs and, for q = -1, the Fp2 kernels keep their
    // products wide with one reduction per output coefficient: every
    // wide value reduced below is < 2p^2 < p * R, the bound redc needs.
    // Other q run the reduced forms, which take fully reduced Montgomery
    // products. Outputs may alias inputs: all products are formed before
    // r0 or r1 is written. r0 and r1 must not alias each other.

    /** Montgomery multiply and modular add/sub, as the reduced forms
     *  take them (the shape of mulSpareBit/add/sub above). */
    using BinFn = void (*)(u64 *, const u64 *, const u64 *,
                           const MontParams &);

    /**
     * (r0 + r1 u) = (a0 + a1 u)(b0 + b1 u): Karatsuba, three products.
     * c1 = (a0+a1)(b0+b1) - a0 b0 - a1 b1, c0 = a0 b0 + q a1 b1.
     */
    static void
    fp2Mul(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, const u64 *b0,
           const u64 *b1, i64 q, const MontParams &prm)
    {
        if (q == -1) {
            u64 sa[N], sb[N], v0[2 * N], v1[2 * N], t[2 * N];
            addWide<N>(sa, a0, a1);
            addWide<N>(sb, b0, b1);
            wideMul(v0, a0, b0);
            wideMul(v1, a1, b1);
            wideMul(t, sa, sb);
            // a0 b1 + a1 b0 in [0, 2p^2): the subtractions never borrow
            // out.
            subWide<2 * N>(t, t, v0);
            subWide<2 * N>(t, t, v1);
            // a0 b0 - a1 b1, lifted by p^2 when negative: [0, p^2).
            const u64 borrow = subWide<2 * N>(v0, v0, v1);
            addMasked<2 * N>(v0, prm.pSquared, u64{0} - borrow);
            redc(r0, v0, prm);
            redc(r1, t, prm);
            return;
        }
        fp2MulReduced<&mulSpareBit, &add, &sub>(r0, r1, a0, a1, b0, b1, q,
                                                prm);
    }

    /**
     * (r0 + r1 u) = (a0 + a1 u)^2: complex squaring, two products.
     * c1 = 2 a0 a1, c0 = (a0 + a1)(a0 + q a1) - (1 + q) a0 a1, which for
     * q = -1 is (a0 + a1)(a0 - a1).
     */
    static void
    fp2Sqr(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, i64 q,
           const MontParams &prm)
    {
        if (q == -1) {
            u64 s[N], d[N], a0x2[N], t[2 * N], u[2 * N];
            addWide<N>(s, a0, a1);    // < 2p
            addWide<N>(a0x2, a0, a0); // < 2p
            // d = a0 - a1 mod p, p added back under the borrow mask:
            // with sub's branch on the borrow this square ran 5-14%
            // slower (BLS12-381 and 4 limbs, 4-vCPU Xeon VM).
            const u64 borrow = subWide<N>(d, a0, a1);
            addMasked<N>(d, prm.p, u64{0} - borrow);
            wideMul(t, s, d);
            wideMul(u, a0x2, a1);
            redc(r0, t, prm);
            redc(r1, u, prm);
            return;
        }
        fp2SqrReduced<&mulSpareBit, &add, &sub>(r0, r1, a0, a1, q, prm);
    }

    /** fp2Mul on fully reduced products: 3 kMul, mod add/sub. */
    template <BinFn kMul, BinFn kAdd, BinFn kSub>
    static FINESSE_FORCE_INLINE void
    fp2MulReduced(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1,
                  const u64 *b0, const u64 *b1, i64 q,
                  const MontParams &prm)
    {
        u64 sa[N], sb[N], v0[N], v1[N], t[N];
        kAdd(sa, a0, a1, prm);
        kAdd(sb, b0, b1, prm);
        kMul(v0, a0, b0, prm);
        kMul(v1, a1, b1, prm);
        kMul(t, sa, sb, prm);
        kSub(t, t, v0, prm);
        kSub(r1, t, v1, prm);
        // c0 = v0 - (-q) v1.
        if (q != -1)
            mulSmall(v1, v1, -q, prm);
        kSub(r0, v0, v1, prm);
    }

    /** fp2Sqr on fully reduced products: 2 kMul, mod add/sub. */
    template <BinFn kMul, BinFn kAdd, BinFn kSub>
    static FINESSE_FORCE_INLINE void
    fp2SqrReduced(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, i64 q,
                  const MontParams &prm)
    {
        u64 s[N], d[N], v[N];
        kAdd(s, a0, a1, prm);
        if (q == -1) {
            kSub(d, a0, a1, prm);
        } else {
            mulSmall(d, a1, q, prm);
            kAdd(d, a0, d, prm);
        }
        kMul(v, a0, a1, prm);
        kMul(d, s, d, prm);
        if (q != -1) {
            mulSmall(s, v, q + 1, prm);
            kSub(d, d, s, prm);
        }
        for (size_t i = 0; i < N; ++i)
            r0[i] = d[i];
        kAdd(r1, v, v, prm);
    }

  private:
    /** r = q * a mod p for a small integer q: double-and-add on |q|. */
    static void
    mulSmall(u64 *r, const u64 *a, i64 q, const MontParams &prm)
    {
        const u64 k = q < 0 ? u64{0} - static_cast<u64>(q)
                            : static_cast<u64>(q);
        u64 acc[N] = {0};
        for (int bit = std::bit_width(k); bit-- > 0;) {
            add(acc, acc, acc, prm);
            if ((k >> bit) & 1)
                add(acc, acc, a, prm);
        }
        if (q < 0)
            neg(acc, acc, prm);
        for (size_t i = 0; i < N; ++i)
            r[i] = acc[i];
    }

    /** r = a + b over M limbs; returns the carry out. */
    template <size_t M>
    static FINESSE_FORCE_INLINE u64
    addWide(u64 *r, const u64 *a, const u64 *b)
    {
        u64 carry = 0;
        for (size_t i = 0; i < M; ++i) {
            const u128 t = static_cast<u128>(a[i]) + b[i] + carry;
            r[i] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
        return carry;
    }

    /** r = a - b over M limbs; returns the borrow out. */
    template <size_t M>
    static FINESSE_FORCE_INLINE u64
    subWide(u64 *r, const u64 *a, const u64 *b)
    {
        u64 borrow = 0;
        for (size_t i = 0; i < M; ++i) {
            const u128 t = static_cast<u128>(a[i]) - b[i] - borrow;
            r[i] = static_cast<u64>(t);
            borrow = static_cast<u64>(-(t >> 64)) & 1;
        }
        return borrow;
    }

    /** r += b & mask over M limbs (mask is 0 or all ones). */
    template <size_t M>
    static FINESSE_FORCE_INLINE void
    addMasked(u64 *r, const u64 *b, u64 mask)
    {
        u64 carry = 0;
        for (size_t i = 0; i < M; ++i) {
            const u128 t = static_cast<u128>(r[i]) + (b[i] & mask) + carry;
            r[i] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
    }

    /** a < b over N limbs. */
    static FINESSE_FORCE_INLINE bool
    lessThan(const u64 *a, const u64 *b)
    {
        for (size_t i = N; i-- > 0;) {
            if (a[i] != b[i])
                return a[i] < b[i];
        }
        return false;
    }

    /** Subtract p from r once when value = extraCarry * R + r >= p;
     *  callers guarantee value < 2p so one subtract fully reduces. */
    static FINESSE_FORCE_INLINE void
    condSub(u64 *r, const u64 *p, u64 extraCarry)
    {
        if (extraCarry != 0 || !lessThan(r, p)) {
            u64 borrow = 0;
            for (size_t i = 0; i < N; ++i) {
                const u128 s = static_cast<u128>(r[i]) - p[i] - borrow;
                r[i] = static_cast<u64>(s);
                borrow = static_cast<u64>(-(s >> 64)) & 1;
            }
        }
    }
};

// x86-64 ADX/BMI2 fast path ----------------------------------------------
//
// Hand-scheduled 4- and 6-limb Montgomery multiplication using mulx + the
// dual adcx/adox carry chains those extensions exist for (Gopal et al.,
// "New Instructions Supporting Large Integer Arithmetic on Intel
// Architecture Processors", 2012). Inline asm needs no compiler ISA
// flags, so this inlines into baseline-ISA callers; it is selected at
// MontCtx construction only when the CPU reports BMI2 + ADX; like every
// kernel they rely on the modulus's spare top bit (value < 2p stays in
// N limbs).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FINESSE_HAVE_X86_ADX 1

/** Runtime check for the mulx/adcx/adox instruction set. */
inline bool
cpuHasAdx()
{
    static const bool has =
        __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
    return has;
}

/**
 * r = a * b * R^-1 mod p for exactly 4 limbs with a spare-top-bit
 * modulus. Same algorithm as MontKernel<4>::mulSpareBit; the multiply
 * and reduce passes of each round run as two independent carry chains
 * (CF via adcx, OF via adox) that retire in parallel.
 */
FINESSE_FORCE_INLINE void
montMulAdx4(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    __asm__ volatile(
        // Round 0: t = a0 * b (t was zero — plain single carry chain).
        "movq 0(%[a]), %%rdx\n\t"
        "mulxq 0(%[b]), %%r8, %%rcx\n\t"
        "mulxq 8(%[b]), %%rax, %%r13\n\t"
        "addq %%rcx, %%rax\n\t"
        "movq %%rax, %%r9\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcq %%r13, %%rax\n\t"
        "movq %%rax, %%r10\n\t"
        "mulxq 24(%[b]), %%rax, %%r13\n\t"
        "adcq %%rcx, %%rax\n\t"
        "movq %%rax, %%r11\n\t"
        "adcq $0, %%r13\n\t"
        "movq %%r13, %%r12\n\t"
        // Round 0 reduce: m = t0 * n0inv; t = (t + m*p) >> 64.
        "movq %%r8, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t" // clear CF and OF
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r8, %%rax\n\t" // low word cancels; keep the carry
        "mulxq 8(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%r13, %%r10\n\t"
        "mulxq 24(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r12\n\t"
        "adoxq %%rax, %%r12\n\t"
        // t now lives in (r9, r10, r11, r12); r8 is free.

        // Round 1: t += a1 * b (dual chain), reduce, shift.
        "movq 8(%[a]), %%rdx\n\t"
        "xorl %%r8d, %%r8d\n\t" // A = 0, clears CF/OF
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "mulxq 8(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%r13, %%r11\n\t"
        "mulxq 24(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r8\n\t"
        "adoxq %%rax, %%r8\n\t"
        "movq %%r9, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r9, %%rax\n\t"
        "mulxq 8(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%r13, %%r11\n\t"
        "mulxq 24(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r8\n\t"
        "adoxq %%rax, %%r8\n\t"
        // t = (r10, r11, r12, r8); r9 free.

        // Round 2.
        "movq 16(%[a]), %%rdx\n\t"
        "xorl %%r9d, %%r9d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "mulxq 8(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%r13, %%r12\n\t"
        "mulxq 24(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r9\n\t"
        "adoxq %%rax, %%r9\n\t"
        "movq %%r10, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r10, %%rax\n\t"
        "mulxq 8(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%r13, %%r12\n\t"
        "mulxq 24(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r9\n\t"
        "adoxq %%rax, %%r9\n\t"
        // t = (r11, r12, r8, r9); r10 free.

        // Round 3.
        "movq 24(%[a]), %%rdx\n\t"
        "xorl %%r10d, %%r10d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "mulxq 8(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%r13, %%r8\n\t"
        "mulxq 24(%[b]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r10\n\t"
        "adoxq %%rax, %%r10\n\t"
        "movq %%r11, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r11, %%rax\n\t"
        "mulxq 8(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%r13, %%r8\n\t"
        "mulxq 24(%[p]), %%rax, %%r13\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%r13, %%r10\n\t"
        "adoxq %%rax, %%r10\n\t"
        // t = (r12, r8, r9, r10), strictly below 2p.

        // Branch-free final reduction: t - p with cmov select.
        "movq %%r12, %%rcx\n\t"
        "movq %%r8, %%rdx\n\t"
        "movq %%r9, %%r13\n\t"
        "movq %%r10, %%r11\n\t"
        "subq 0(%[p]), %%rcx\n\t"
        "sbbq 8(%[p]), %%rdx\n\t"
        "sbbq 16(%[p]), %%r13\n\t"
        "sbbq 24(%[p]), %%r11\n\t"
        "cmovncq %%rcx, %%r12\n\t"
        "cmovncq %%rdx, %%r8\n\t"
        "cmovncq %%r13, %%r9\n\t"
        "cmovncq %%r11, %%r10\n\t"
        "movq %%r12, 0(%[r])\n\t"
        "movq %%r8, 8(%[r])\n\t"
        "movq %%r9, 16(%[r])\n\t"
        "movq %%r10, 24(%[r])\n\t"
        :
        : [r] "r"(r), [a] "r"(a), [b] "r"(b), [p] "r"(prm.p),
          [n0] "r"(prm.n0inv)
        : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13",
          "cc", "memory");
}

/**
 * r = a + b mod p for 4 limbs (a, b < p, 2p < R): the sum, replaced by
 * sum - p unless that borrows (cmov, no branch on the data). Scalar asm
 * keeps every limb in a register: compiled C++ vectorizes the select and
 * then stalls reloading limbs the multiplier stored one at a time.
 * Serves the ADX Fp2 kernels and MontCtx::add on ADX contexts. All
 * limbs are read before r is written, so r may alias a or b.
 */
FINESSE_FORCE_INLINE void
addMod4Asm(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    u64 s0, s1, s2, s3, d0, d1, d2, d3;
    __asm__("movq 0(%[a]), %[s0]\n\t"
            "addq 0(%[b]), %[s0]\n\t"
            "movq 8(%[a]), %[s1]\n\t"
            "adcq 8(%[b]), %[s1]\n\t"
            "movq 16(%[a]), %[s2]\n\t"
            "adcq 16(%[b]), %[s2]\n\t"
            "movq 24(%[a]), %[s3]\n\t"
            "adcq 24(%[b]), %[s3]\n\t"
            "movq %[s0], %[d0]\n\t"
            "subq 0(%[p]), %[d0]\n\t"
            "movq %[s1], %[d1]\n\t"
            "sbbq 8(%[p]), %[d1]\n\t"
            "movq %[s2], %[d2]\n\t"
            "sbbq 16(%[p]), %[d2]\n\t"
            "movq %[s3], %[d3]\n\t"
            "sbbq 24(%[p]), %[d3]\n\t"
            "cmovncq %[d0], %[s0]\n\t"
            "cmovncq %[d1], %[s1]\n\t"
            "cmovncq %[d2], %[s2]\n\t"
            "cmovncq %[d3], %[s3]\n\t"
            : [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2),
              [s3] "=&r"(s3), [d0] "=&r"(d0), [d1] "=&r"(d1),
              [d2] "=&r"(d2), [d3] "=&r"(d3)
            : [a] "r"(a), [b] "r"(b), [p] "r"(prm.p)
            : "cc", "memory");
    r[0] = s0;
    r[1] = s1;
    r[2] = s2;
    r[3] = s3;
}

/** r = a - b mod p for 4 limbs: the difference, plus p masked by the
 *  borrow (no branch on the data). Serves the ADX Fp2 kernels and, on
 *  ADX contexts, MontCtx::sub and neg (0 - a). Aliasing as addMod4Asm. */
FINESSE_FORCE_INLINE void
subMod4Asm(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    u64 d0, d1, d2, d3, mask, m0, m1, m2, m3;
    __asm__("movq 0(%[a]), %[d0]\n\t"
            "subq 0(%[b]), %[d0]\n\t"
            "movq 8(%[a]), %[d1]\n\t"
            "sbbq 8(%[b]), %[d1]\n\t"
            "movq 16(%[a]), %[d2]\n\t"
            "sbbq 16(%[b]), %[d2]\n\t"
            "movq 24(%[a]), %[d3]\n\t"
            "sbbq 24(%[b]), %[d3]\n\t"
            "sbbq %[mask], %[mask]\n\t" // all ones on borrow
            "movq 0(%[p]), %[m0]\n\t"
            "andq %[mask], %[m0]\n\t"
            "movq 8(%[p]), %[m1]\n\t"
            "andq %[mask], %[m1]\n\t"
            "movq 16(%[p]), %[m2]\n\t"
            "andq %[mask], %[m2]\n\t"
            "movq 24(%[p]), %[m3]\n\t"
            "andq %[mask], %[m3]\n\t"
            "addq %[m0], %[d0]\n\t"
            "adcq %[m1], %[d1]\n\t"
            "adcq %[m2], %[d2]\n\t"
            "adcq %[m3], %[d3]\n\t"
            : [d0] "=&r"(d0), [d1] "=&r"(d1), [d2] "=&r"(d2),
              [d3] "=&r"(d3), [mask] "=&r"(mask), [m0] "=&r"(m0),
              [m1] "=&r"(m1), [m2] "=&r"(m2), [m3] "=&r"(m3)
            : [a] "r"(a), [b] "r"(b), [p] "r"(prm.p)
            : "cc", "memory");
    r[0] = d0;
    r[1] = d1;
    r[2] = d2;
    r[3] = d3;
}

/**
 * Fp2 multiply for ADX contexts (MontCtx's kAdx4 fast path): Karatsuba
 * on three montMulAdx4 products with the mask-select add/sub above.
 */
inline void
fp2MulAdx4(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, const u64 *b0,
           const u64 *b1, i64 q, const MontParams &prm)
{
    MontKernel<4>::fp2MulReduced<&montMulAdx4, &addMod4Asm, &subMod4Asm>(
        r0, r1, a0, a1, b0, b1, q, prm);
}

/** Fp2 square for ADX contexts: complex squaring, two montMulAdx4. */
inline void
fp2SqrAdx4(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, i64 q,
           const MontParams &prm)
{
    MontKernel<4>::fp2SqrReduced<&montMulAdx4, &addMod4Asm, &subMod4Asm>(
        r0, r1, a0, a1, q, prm);
}

/**
 * r = a * b * R^-1 mod p for exactly 6 limbs with a spare-top-bit
 * modulus (BLS12-381); also the 6-limb ADX square (a == b). Same CIOS as
 * MontKernel<6>::mulSpareBit. Each round adds a_i * b, then m * p, on
 * two carry chains: the low word of each mulx goes into T[j] on CF
 * (adcx) and the high word straight into T[j+1] on OF (adox), so one
 * high temporary (rcx) serves the round. Seven rotating limb registers,
 * rax, rcx and rdx make 10 clobbers next to the a, b and p pointers;
 * n0inv and r are memory operands. With an eleventh clobber the asm
 * has "impossible constraints" under -fsanitize=address
 * -fno-omit-frame-pointer (GCC 12). All limbs are read before r is
 * written, so r may alias a or b.
 */
FINESSE_FORCE_INLINE void
montMulAdx6(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    const u64 n0 = prm.n0inv;
    u64 *const out = r;
    __asm__ volatile(
        // Round 0: t = a0 * b (t was zero: one carry chain, each mulx
        // high word straight into the next limb).
        "movq 0(%[a]), %%rdx\n\t"
        "mulxq 0(%[b]), %%r8, %%r9\n\t"
        "mulxq 8(%[b]), %%rax, %%r10\n\t"
        "addq %%rax, %%r9\n\t"
        "mulxq 16(%[b]), %%rax, %%r11\n\t"
        "adcq %%rax, %%r10\n\t"
        "mulxq 24(%[b]), %%rax, %%r12\n\t"
        "adcq %%rax, %%r11\n\t"
        "mulxq 32(%[b]), %%rax, %%r13\n\t"
        "adcq %%rax, %%r12\n\t"
        "mulxq 40(%[b]), %%rax, %%r14\n\t"
        "adcq %%rax, %%r13\n\t"
        "adcq $0, %%r14\n\t"
        // Round 0 reduce: m = t0 * n0inv; t = (t + m * p) >> 64.
        "movq %%r8, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t" // clear CF and OF
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r8, %%rax\n\t" // low word cancels; keep the carry
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r14\n\t"
        // Round 1: t = (r9, r10, r11, r12, r13, r14), top word r8.
        "movq 8(%[a]), %%rdx\n\t"
        "xorl %%r8d, %%r8d\n\t" // top = 0, clears CF and OF
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 8(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 24(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 32(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 40(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r8\n\t"
        "movq %%r9, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r9, %%rax\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r8\n\t"
        // Round 2: t = (r10, r11, r12, r13, r14, r8), top word r9.
        "movq 16(%[a]), %%rdx\n\t"
        "xorl %%r9d, %%r9d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 8(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 24(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 32(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 40(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r9\n\t"
        "movq %%r10, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r10, %%rax\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r9\n\t"
        // Round 3: t = (r11, r12, r13, r14, r8, r9), top word r10.
        "movq 24(%[a]), %%rdx\n\t"
        "xorl %%r10d, %%r10d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 8(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 24(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 32(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 40(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r10\n\t"
        "movq %%r11, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r11, %%rax\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r10\n\t"
        // Round 4: t = (r12, r13, r14, r8, r9, r10), top word r11.
        "movq 32(%[a]), %%rdx\n\t"
        "xorl %%r11d, %%r11d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r12\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 8(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 24(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 32(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 40(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r11\n\t"
        "movq %%r12, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r12, %%rax\n\t"
        "adoxq %%rcx, %%r13\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r11\n\t"
        // Round 5: t = (r13, r14, r8, r9, r10, r11), top word r12.
        "movq 40(%[a]), %%rdx\n\t"
        "xorl %%r12d, %%r12d\n\t"
        "mulxq 0(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r13\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 8(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 16(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 24(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 32(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 40(%[b]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r12\n\t"
        "movq %%r13, %%rdx\n\t"
        "imulq %[n0], %%rdx\n\t"
        "xorl %%eax, %%eax\n\t"
        "mulxq 0(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%r13, %%rax\n\t"
        "adoxq %%rcx, %%r14\n\t"
        "mulxq 8(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r14\n\t"
        "adoxq %%rcx, %%r8\n\t"
        "mulxq 16(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r8\n\t"
        "adoxq %%rcx, %%r9\n\t"
        "mulxq 24(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r9\n\t"
        "adoxq %%rcx, %%r10\n\t"
        "mulxq 32(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r10\n\t"
        "adoxq %%rcx, %%r11\n\t"
        "mulxq 40(%[p]), %%rax, %%rcx\n\t"
        "adcxq %%rax, %%r11\n\t"
        "adoxq %%rcx, %%r12\n\t"
        "movl $0, %%eax\n\t"
        "adcxq %%rax, %%r12\n\t"
        // t = (r14, r8, r9, r10, r11, r12) < 2p. Subtract p in place; the
        // difference's top bit (SF) is set exactly when it borrowed, so cmovs
        // adds p back on a CF-only adcx chain.
        "subq 0(%[p]), %%r14\n\t"
        "sbbq 8(%[p]), %%r8\n\t"
        "sbbq 16(%[p]), %%r9\n\t"
        "sbbq 24(%[p]), %%r10\n\t"
        "sbbq 32(%[p]), %%r11\n\t"
        "sbbq 40(%[p]), %%r12\n\t"
        "clc\n\t"
        "movl $0, %%ecx\n\t"
        "cmovsq 0(%[p]), %%rcx\n\t"
        "adcxq %%rcx, %%r14\n\t"
        "movl $0, %%edx\n\t"
        "cmovsq 8(%[p]), %%rdx\n\t"
        "adcxq %%rdx, %%r8\n\t"
        "movl $0, %%r13d\n\t"
        "cmovsq 16(%[p]), %%r13\n\t"
        "adcxq %%r13, %%r9\n\t"
        "movl $0, %%ecx\n\t"
        "cmovsq 24(%[p]), %%rcx\n\t"
        "adcxq %%rcx, %%r10\n\t"
        "movl $0, %%edx\n\t"
        "cmovsq 32(%[p]), %%rdx\n\t"
        "adcxq %%rdx, %%r11\n\t"
        "movl $0, %%r13d\n\t"
        "cmovsq 40(%[p]), %%r13\n\t"
        "adcxq %%r13, %%r12\n\t"
        "movq %[r], %%rax\n\t"
        "movq %%r14, 0(%%rax)\n\t"
        "movq %%r8, 8(%%rax)\n\t"
        "movq %%r9, 16(%%rax)\n\t"
        "movq %%r10, 24(%%rax)\n\t"
        "movq %%r11, 32(%%rax)\n\t"
        "movq %%r12, 40(%%rax)\n\t"

        :
        : [a] "r"(a), [b] "r"(b), [p] "r"(prm.p), [n0] "m"(n0),
          [r] "m"(out)
        : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13",
          "r14", "cc", "memory");
}

/**
 * r = a + b mod p for 6 limbs (a, b < p, 2p < R): the sum less p, with
 * p added back when that borrowed. The spare top bit sets the top bit of
 * the difference (SF) exactly on a borrow, so cmovs selects the p limbs
 * to add back on a CF-only adcx chain and one temporary serves all six:
 * 7 registers where addMod4Asm's two-copy select would need 12. Serves
 * the 6-limb ADX table and its Fp2 kernels. All limbs are read before r
 * is written, so r may alias a or b.
 */
FINESSE_FORCE_INLINE void
addMod6Asm(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    u64 d0, d1, d2, d3, d4, d5, m;
    __asm__("movq 0(%[a]), %[d0]\n\t"
            "addq 0(%[b]), %[d0]\n\t"
            "movq 8(%[a]), %[d1]\n\t"
            "adcq 8(%[b]), %[d1]\n\t"
            "movq 16(%[a]), %[d2]\n\t"
            "adcq 16(%[b]), %[d2]\n\t"
            "movq 24(%[a]), %[d3]\n\t"
            "adcq 24(%[b]), %[d3]\n\t"
            "movq 32(%[a]), %[d4]\n\t"
            "adcq 32(%[b]), %[d4]\n\t"
            "movq 40(%[a]), %[d5]\n\t"
            "adcq 40(%[b]), %[d5]\n\t"
            "subq 0(%[p]), %[d0]\n\t"
            "sbbq 8(%[p]), %[d1]\n\t"
            "sbbq 16(%[p]), %[d2]\n\t"
            "sbbq 24(%[p]), %[d3]\n\t"
            "sbbq 32(%[p]), %[d4]\n\t"
            "sbbq 40(%[p]), %[d5]\n\t"
            "clc\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 0(%[p]), %[m]\n\t"
            "adcxq %[m], %[d0]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 8(%[p]), %[m]\n\t"
            "adcxq %[m], %[d1]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 16(%[p]), %[m]\n\t"
            "adcxq %[m], %[d2]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 24(%[p]), %[m]\n\t"
            "adcxq %[m], %[d3]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 32(%[p]), %[m]\n\t"
            "adcxq %[m], %[d4]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 40(%[p]), %[m]\n\t"
            "adcxq %[m], %[d5]\n\t"
            : [d0] "=&r"(d0), [d1] "=&r"(d1), [d2] "=&r"(d2),
              [d3] "=&r"(d3), [d4] "=&r"(d4), [d5] "=&r"(d5),
              [m] "=&r"(m)
            : [a] "r"(a), [b] "r"(b), [p] "r"(prm.p)
            : "cc", "memory");
    r[0] = d0;
    r[1] = d1;
    r[2] = d2;
    r[3] = d3;
    r[4] = d4;
    r[5] = d5;
}

/** r = a - b mod p for 6 limbs: the difference, with p added back on a
 *  borrow, which (a, b < p < R/2) sets the difference's top bit; the
 *  add-back is addMod6Asm's. Aliasing as addMod6Asm. */
FINESSE_FORCE_INLINE void
subMod6Asm(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
{
    u64 d0, d1, d2, d3, d4, d5, m;
    __asm__("movq 0(%[a]), %[d0]\n\t"
            "subq 0(%[b]), %[d0]\n\t"
            "movq 8(%[a]), %[d1]\n\t"
            "sbbq 8(%[b]), %[d1]\n\t"
            "movq 16(%[a]), %[d2]\n\t"
            "sbbq 16(%[b]), %[d2]\n\t"
            "movq 24(%[a]), %[d3]\n\t"
            "sbbq 24(%[b]), %[d3]\n\t"
            "movq 32(%[a]), %[d4]\n\t"
            "sbbq 32(%[b]), %[d4]\n\t"
            "movq 40(%[a]), %[d5]\n\t"
            "sbbq 40(%[b]), %[d5]\n\t"
            "clc\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 0(%[p]), %[m]\n\t"
            "adcxq %[m], %[d0]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 8(%[p]), %[m]\n\t"
            "adcxq %[m], %[d1]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 16(%[p]), %[m]\n\t"
            "adcxq %[m], %[d2]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 24(%[p]), %[m]\n\t"
            "adcxq %[m], %[d3]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 32(%[p]), %[m]\n\t"
            "adcxq %[m], %[d4]\n\t"
            "movl $0, %k[m]\n\t"
            "cmovsq 40(%[p]), %[m]\n\t"
            "adcxq %[m], %[d5]\n\t"
            : [d0] "=&r"(d0), [d1] "=&r"(d1), [d2] "=&r"(d2),
              [d3] "=&r"(d3), [d4] "=&r"(d4), [d5] "=&r"(d5),
              [m] "=&r"(m)
            : [a] "r"(a), [b] "r"(b), [p] "r"(prm.p)
            : "cc", "memory");
    r[0] = d0;
    r[1] = d1;
    r[2] = d2;
    r[3] = d3;
    r[4] = d4;
    r[5] = d5;
}

/** Fp2 multiply of the 6-limb ADX table: Karatsuba on three
 *  montMulAdx6 products with the asm add/sub above. */
inline void
fp2MulAdx6(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, const u64 *b0,
           const u64 *b1, i64 q, const MontParams &prm)
{
    MontKernel<6>::fp2MulReduced<&montMulAdx6, &addMod6Asm, &subMod6Asm>(
        r0, r1, a0, a1, b0, b1, q, prm);
}

/** Fp2 square of the 6-limb ADX table: two montMulAdx6 products. */
inline void
fp2SqrAdx6(u64 *r0, u64 *r1, const u64 *a0, const u64 *a1, i64 q,
           const MontParams &prm)
{
    MontKernel<6>::fp2SqrReduced<&montMulAdx6, &addMod6Asm, &subMod6Asm>(
        r0, r1, a0, a1, q, prm);
}

#else
#define FINESSE_HAVE_X86_ADX 0
#endif

/**
 * Width-indexed dispatch table. MontCtx resolves its table once at
 * construction (switch on the limb count), after which every field
 * operation is a single indirect call into the unrolled kernel with no
 * per-call width branching.
 */
struct KernelVTable
{
    void (*add)(u64 *, const u64 *, const u64 *, const MontParams &);
    void (*sub)(u64 *, const u64 *, const u64 *, const MontParams &);
    void (*neg)(u64 *, const u64 *, const MontParams &);
    void (*mul)(u64 *, const u64 *, const u64 *, const MontParams &);
    void (*sqr)(u64 *, const u64 *, const MontParams &);
    /** Fp2 multiply over u^2 = q: (r0, r1, a0, a1, b0, b1, q). */
    void (*fp2Mul)(u64 *, u64 *, const u64 *, const u64 *, const u64 *,
                   const u64 *, i64, const MontParams &);
    /** Fp2 square over u^2 = q: (r0, r1, a0, a1, q). */
    void (*fp2Sqr)(u64 *, u64 *, const u64 *, const u64 *, i64,
                   const MontParams &);
};

/**
 * Largest modulus top limb for which the fused spare-top-bit CIOS
 * (MontKernel::mulSpareBit) is sound: the running value must stay below
 * 2p < R, i.e. the modulus needs at least one free bit in its top limb.
 * Every catalog prime qualifies (BN254: 254 bits in 4 limbs, BLS12-381:
 * 381 bits in 6 limbs, ...); kernelWidth pads any other modulus.
 */
inline constexpr u64 kSpareBitTopLimbMax = (u64{1} << 63) - 2;

namespace detail {

template <size_t N>
inline constexpr KernelVTable kKernelVTable = {
    &MontKernel<N>::add,
    &MontKernel<N>::sub,
    &MontKernel<N>::neg,
    &MontKernel<N>::mulSpareBit,
    &MontKernel<N>::sqr,
    &MontKernel<N>::fp2Mul,
    &MontKernel<N>::fp2Sqr,
};

} // namespace detail

/**
 * Portable kernel table for width @p n, or nullptr when @p n is not a
 * kernel width. The widths are the catalog's base fields: 4 (BN254N),
 * 6 (BLS12-381, BLS12-377), 7 (BLS12-446), 8 (BN462, BLS24-509) and 10
 * (BN638, BLS12-638). On ADX hosts MontCtx takes kAdx6KernelVTable in
 * place of the 6-limb table.
 */
inline const KernelVTable *
kernelVTable(size_t n)
{
    switch (n) {
      case 4: return &detail::kKernelVTable<4>;
      case 6: return &detail::kKernelVTable<6>;
      case 7: return &detail::kKernelVTable<7>;
      case 8: return &detail::kKernelVTable<8>;
      case 10: return &detail::kKernelVTable<10>;
      default: return nullptr;
    }
}

static_assert(kMaxLimbs == 10, "add a kernelVTable width when widening");

/**
 * The width a modulus of @p limbs limbs with top limb @p topLimb runs
 * at: one limb more when the top limb leaves no spare bit (above
 * kSpareBitTopLimbMax), rounded up to the next width with a
 * kernelVTable; 0 when none fits. The padding limbs of the modulus are
 * zero, so the padded modulus leaves a spare top bit.
 */
inline size_t
kernelWidth(size_t limbs, u64 topLimb)
{
    size_t w = limbs + (topLimb > kSpareBitTopLimbMax ? 1 : 0);
    while (w <= kMaxLimbs && kernelVTable(w) == nullptr)
        ++w;
    return w <= kMaxLimbs ? w : 0;
}

#if FINESSE_HAVE_X86_ADX
/**
 * The 6-limb ADX table: montMulAdx6 (also the square), addMod6Asm,
 * subMod6Asm (neg is 0 - a) and the Fp2 kernels on them. MontCtx selects
 * it in place of kernelVTable(6) (BLS12-381) when cpuHasAdx() holds. A
 * table rather than an inline FastPath arm like kAdx4's: an arm would
 * put the ~290-instruction multiply at every MontCtx::mul call site,
 * BN254N's included, while at 6 limbs the indirect call is a small
 * share of the multiply.
 */
inline constexpr KernelVTable kAdx6KernelVTable = {
    &addMod6Asm,
    &subMod6Asm,
    [](u64 *r, const u64 *a, const MontParams &prm) {
        static constexpr u64 kZero[6] = {};
        subMod6Asm(r, kZero, a, prm);
    },
    &montMulAdx6,
    [](u64 *r, const u64 *a, const MontParams &prm) {
        montMulAdx6(r, a, a, prm);
    },
    &fp2MulAdx6,
    &fp2SqrAdx6,
};
#endif

} // namespace finesse

#endif // FINESSE_BIGINT_MONTKERNEL_H_
