/**
 * @file
 * Fixed-limb Montgomery kernels: a MontKernel<N> template family whose
 * loop bounds are compile-time constants, so every curve width gets fully
 * unrolled, allocation-free CIOS multiplication, a dedicated squaring
 * kernel (cross-product doubling), unrolled linear ops, and a split
 * wideMul / montRedc pair that enables lazy (single-reduction)
 * sum-of-products accumulation in the extension tower.
 *
 * MontCtx (bigint/mont.h) selects one KernelVTable per context at
 * construction — a single indirect call per operation replaces the
 * per-iteration runtime-width branching of the generic loop. Moduli
 * whose top limb is <= kSpareBitTopLimbMax (every catalog curve) get
 * the spare-top-bit table, whose fused single-scratch CIOS multiply
 * (mulSpareBit, the gnark "no-carry" shape) drops the overflow-limb
 * bookkeeping entirely. On x86-64 with BMI2+ADX, 4-limb spare-bit
 * contexts additionally bypass the vtable for a hand-scheduled
 * mulx/adcx/adox dual-carry-chain asm kernel (montMulAdx4), selected at
 * context construction via cpuHasAdx(). The generic runtime-width
 * implementation stays in MontCtx as the differential oracle
 * (mulGeneric/sqrGeneric/...); tests/test_montkernel.cpp checks every
 * width 1..kMaxLimbs against it and against BigInt reference
 * arithmetic.
 *
 * Value contract: all kernel entry points take fully reduced Montgomery
 * residues (< p) and produce fully reduced residues, touching only the
 * low N limbs of their destination. Intermediate values inside
 * sumOfProducts may exceed p (that is the point of lazy reduction); the
 * final conditional-subtract loop restores the invariant before the
 * value escapes.
 */
#ifndef FINESSE_BIGINT_MONTKERNEL_H_
#define FINESSE_BIGINT_MONTKERNEL_H_

#include <cstddef>

#include "bigint/limbs.h"
#include "support/common.h"

namespace finesse {

/**
 * Per-modulus constants a kernel needs, passed by reference so the same
 * instantiation serves every context of its width. pSquared (2N limbs,
 * p^2) turns negatively-signed lazy terms into non-negative ones:
 * c * (p^2 - a*b) == -c * a*b (mod p) for residues a, b < p.
 */
struct MontParams
{
    const u64 *p;        ///< modulus, N limbs
    const u64 *pSquared; ///< p^2, 2N limbs
    u64 n0inv;           ///< -p^-1 mod 2^64
};

/** One lazy term: coeff * a * b with a small signed integer coeff. */
struct MontTerm
{
    const u64 *a;
    const u64 *b;
    i64 coeff;
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

    /** r = a * b * R^-1 mod p, fully unrolled CIOS. */
    static void
    mul(u64 *r, const u64 *a, const u64 *b, const MontParams &prm)
    {
        u64 t[N + 2] = {0};
        for (size_t i = 0; i < N; ++i) {
            u64 carry = 0;
            const u64 ai = a[i];
            for (size_t j = 0; j < N; ++j) {
                const u128 s = static_cast<u128>(ai) * b[j] + t[j] + carry;
                t[j] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            u128 s = static_cast<u128>(t[N]) + carry;
            t[N] = static_cast<u64>(s);
            t[N + 1] = static_cast<u64>(s >> 64);

            const u64 m = t[0] * prm.n0inv;
            u128 acc = static_cast<u128>(m) * prm.p[0] + t[0];
            carry = static_cast<u64>(acc >> 64);
            for (size_t j = 1; j < N; ++j) {
                acc = static_cast<u128>(m) * prm.p[j] + t[j] + carry;
                t[j - 1] = static_cast<u64>(acc);
                carry = static_cast<u64>(acc >> 64);
            }
            s = static_cast<u128>(t[N]) + carry;
            t[N - 1] = static_cast<u64>(s);
            t[N] = t[N + 1] + static_cast<u64>(s >> 64);
            t[N + 1] = 0;
        }
        for (size_t i = 0; i < N; ++i)
            r[i] = t[i];
        condSub(r, prm.p, t[N]);
    }

    /**
     * r = a * b * R^-1 mod p, CIOS with the spare-top-bit optimization:
     * when p[N-1] <= 2^63 - 2 the running value never exceeds N limbs,
     * so the multiply and reduce passes fuse into one loop over an
     * N-word scratch with no overflow-limb bookkeeping. Callers must
     * check the modulus condition (kernelVTable does).
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
     * wideMul, then one streamlined Montgomery reduction whose per-round
     * carry is deferred to the next round's high-limb write (no ripple).
     */
    static FINESSE_FORCE_INLINE void
    sqr(u64 *r, const u64 *a, const MontParams &prm)
    {
        u64 t[2 * N];
        wideSqr(t, a);
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
        // Result = t[N..2N) + carry2 * R, and it is < 2p: one
        // conditional subtract restores full reduction.
        for (size_t i = 0; i < N; ++i)
            r[i] = t[i + N];
        condSub(r, prm.p, carry2);
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
     * Montgomery-reduce a (2N+2)-limb accumulator in place:
     * r = t * R^-1 mod p, fully reduced. The accumulator may hold any
     * value below 2^64 * p * R (ample for small-coefficient
     * sums-of-products); the trailing conditional-subtract loop runs
     * once per multiple of p left over, i.e. at most sum(|coeff|)+1
     * times.
     */
    static FINESSE_FORCE_INLINE void
    montRedc(u64 *r, u64 *t, const MontParams &prm)
    {
        // Per-round carry out of the t[i+N] write lands exactly where
        // the next round writes (t[i+1+N]), so it is deferred in carry2
        // instead of rippling through the accumulator.
        u64 carry2 = 0;
        for (size_t i = 0; i < N; ++i) {
            const u64 m = t[i] * prm.n0inv;
            // j = 0: only the carry of m*p[0] + t[i] matters (low word
            // is zero by choice of m; t[i] is never read again).
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
        const u128 sTop = static_cast<u128>(t[2 * N]) + carry2;
        t[2 * N] = static_cast<u64>(sTop);
        t[2 * N + 1] += static_cast<u64>(sTop >> 64);
        // Result = t[N .. 2N+1]; extra limbs hold the multiple-of-p
        // excess. Subtract p until the value drops below p — note the
        // overflow limbs reaching zero does NOT mean the value is
        // reduced (it may still be several multiples of p that happen to
        // fit in N limbs), so the loop must also compare against p. It
        // runs at most sum(|coeff|)+1 times.
        u64 *hi = t + N;
        while ((hi[N] | hi[N + 1]) != 0 || !lessThan(hi, prm.p)) {
            u64 borrow = 0;
            for (size_t i = 0; i < N; ++i) {
                const u128 s =
                    static_cast<u128>(hi[i]) - prm.p[i] - borrow;
                hi[i] = static_cast<u64>(s);
                borrow = static_cast<u64>(-(s >> 64)) & 1;
            }
            const u128 s0 = static_cast<u128>(hi[N]) - borrow;
            hi[N] = static_cast<u64>(s0);
            hi[N + 1] -= static_cast<u64>(-(s0 >> 64)) & 1;
        }
        for (size_t i = 0; i < N; ++i)
            r[i] = hi[i];
    }

    /**
     * r = (sum_i coeff_i * a_i * b_i) * R^-1 mod p with ONE Montgomery
     * reduction. Negative coefficients are folded through
     * |c| * (p^2 - a*b), which is congruent and non-negative. This is
     * the lazy-reduction hook behind Fp::sumOfProducts and the tower's
     * 2-reduction Fp2 multiplication.
     */
    static void
    sumOfProducts(u64 *r, const MontTerm *terms, size_t k,
                  const MontParams &prm)
    {
        u64 acc[2 * N + 2] = {0};
        u64 t[2 * N];
        for (size_t term = 0; term < k; ++term) {
            const i64 c = terms[term].coeff;
            if (c == 0)
                continue;
            if (terms[term].a == terms[term].b)
                wideSqr(t, terms[term].a);
            else
                wideMul(t, terms[term].a, terms[term].b);
            if (c < 0) {
                // t := p^2 - t (non-negative since a, b < p).
                u64 borrow = 0;
                for (size_t i = 0; i < 2 * N; ++i) {
                    const u128 s = static_cast<u128>(prm.pSquared[i]) -
                                   t[i] - borrow;
                    t[i] = static_cast<u64>(s);
                    borrow = static_cast<u64>(-(s >> 64)) & 1;
                }
            }
            const u64 scale =
                c < 0 ? static_cast<u64>(-(c + 1)) + 1 : static_cast<u64>(c);
            scaleAdd(acc, t, scale);
        }
        montRedc(r, acc, prm);
    }

  private:
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

    /** acc[0..2N+2) += scale * t[0..2N) for a small scale factor. */
    static FINESSE_FORCE_INLINE void
    scaleAdd(u64 *acc, const u64 *t, u64 scale)
    {
        if (scale == 1) {
            u64 carry = 0;
            for (size_t i = 0; i < 2 * N; ++i) {
                const u128 s = static_cast<u128>(acc[i]) + t[i] + carry;
                acc[i] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            for (size_t i = 2 * N; carry && i < 2 * N + 2; ++i) {
                const u128 s = static_cast<u128>(acc[i]) + carry;
                acc[i] = static_cast<u64>(s);
                carry = static_cast<u64>(s >> 64);
            }
            return;
        }
        u64 mulCarry = 0;
        u64 addCarry = 0;
        for (size_t i = 0; i < 2 * N; ++i) {
            const u128 pm = static_cast<u128>(t[i]) * scale + mulCarry;
            mulCarry = static_cast<u64>(pm >> 64);
            const u128 s = static_cast<u128>(acc[i]) +
                           static_cast<u64>(pm) + addCarry;
            acc[i] = static_cast<u64>(s);
            addCarry = static_cast<u64>(s >> 64);
        }
        u128 s = static_cast<u128>(acc[2 * N]) + mulCarry + addCarry;
        acc[2 * N] = static_cast<u64>(s);
        acc[2 * N + 1] += static_cast<u64>(s >> 64);
    }
};

// x86-64 ADX/BMI2 fast path ----------------------------------------------
//
// Hand-scheduled 4-limb Montgomery multiplication using mulx + the dual
// adcx/adox carry chains those extensions exist for. Inline asm needs no
// compiler ISA flags, so this inlines into baseline-ISA callers; it is
// selected at MontCtx construction only when the CPU reports BMI2 + ADX
// and the modulus has a spare top bit (value < 2p stays in 4 limbs).
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
montMulAdx4(u64 *r, const u64 *a, const u64 *b, const u64 *p, u64 n0inv)
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
        : [r] "r"(r), [a] "r"(a), [b] "r"(b), [p] "r"(p), [n0] "r"(n0inv)
        : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13",
          "cc", "memory");
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
    void (*sumOfProducts)(u64 *, const MontTerm *, size_t,
                          const MontParams &);
};

/**
 * Largest modulus top limb for which the fused spare-top-bit CIOS
 * (MontKernel::mulSpareBit) is sound: the running value must stay below
 * 2p < R, i.e. the modulus needs at least one free bit in its top limb.
 * Every pairing curve modulus in practice qualifies (BN254: 254 bits in
 * 4 limbs, BLS12-381: 381 bits in 6 limbs, ...).
 */
inline constexpr u64 kSpareBitTopLimbMax = (u64{1} << 63) - 2;

namespace detail {

template <size_t N>
inline constexpr KernelVTable kKernelVTable = {
    &MontKernel<N>::add,          &MontKernel<N>::sub,
    &MontKernel<N>::neg,          &MontKernel<N>::mul,
    &MontKernel<N>::sqr,          &MontKernel<N>::sumOfProducts,
};

template <size_t N>
inline constexpr KernelVTable kKernelVTableSpareBit = {
    &MontKernel<N>::add,          &MontKernel<N>::sub,
    &MontKernel<N>::neg,          &MontKernel<N>::mulSpareBit,
    &MontKernel<N>::sqr,          &MontKernel<N>::sumOfProducts,
};

template <size_t N>
inline const KernelVTable *
pickVTable(bool spareTopBit)
{
    return spareTopBit ? &kKernelVTableSpareBit<N> : &kKernelVTable<N>;
}

} // namespace detail

/**
 * Kernel table for an active width n in [1, kMaxLimbs]. @p topLimb is
 * the modulus's most significant limb; when it leaves a spare bit the
 * faster fused CIOS multiplication is selected.
 */
inline const KernelVTable *
kernelVTable(size_t n, u64 topLimb)
{
    const bool spare = topLimb <= kSpareBitTopLimbMax;
    switch (n) {
      case 1: return detail::pickVTable<1>(spare);
      case 2: return detail::pickVTable<2>(spare);
      case 3: return detail::pickVTable<3>(spare);
      case 4: return detail::pickVTable<4>(spare);
      case 5: return detail::pickVTable<5>(spare);
      case 6: return detail::pickVTable<6>(spare);
      case 7: return detail::pickVTable<7>(spare);
      case 8: return detail::pickVTable<8>(spare);
      case 9: return detail::pickVTable<9>(spare);
      case 10: return detail::pickVTable<10>(spare);
      default: return nullptr;
    }
}

static_assert(kMaxLimbs == 10, "extend kernelVTable when widening");

} // namespace finesse

#endif // FINESSE_BIGINT_MONTKERNEL_H_
