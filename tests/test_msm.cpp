/**
 * @file
 * G1 endomorphism multi-scalar multiplication (curve/msm.h) on every
 * catalog curve: the derived constants (beta^3 = 1 != beta,
 * lambda^2 + lambda + 1 = 0 mod r, phi = [lambda] on G1, the lattice
 * bound that makes (a, b) -> a + b lambda injective on 64-bit words),
 * width-4 NAF recoding, the Gauss lattice reduction against brute
 * force on small moduli, and msmEndo against the double-and-add
 * oracle sum_k scalarMulJac(P_k, (a_k + b_k lambda) mod r) for group
 * sizes 1, 2 and 16, edge scalars, duplicated points, cancelling
 * points and infinity.
 */
#include <gtest/gtest.h>

#include "pairing/cache.h"

namespace finesse {
namespace {

constexpr u64 kMax64 = ~u64{0};

/** Oracle: sum_k [(a_k + b_k lambda) mod r] P_k by double-and-add. */
template <typename TW>
AffinePt<Fp>
oracleSum(const CurveSystem<TW> &sys, const std::vector<EndoTerm<Fp>> &terms)
{
    const CurveCtx<Fp> &c = sys.g1Curve();
    AffinePt<Fp> sum = AffinePt<Fp>::atInfinity();
    for (const EndoTerm<Fp> &t : terms) {
        const BigInt n =
            (BigInt(t.a) + BigInt(t.b) * sys.g1Lambda()).mod(sys.info().r);
        sum = affineAdd(c, sum, jacToAffine(scalarMulJac(c, t.point, n),
                                            c.field));
    }
    return sum;
}

template <typename TW>
void
checkConstants(const CurveSystem<TW> &sys, u64 seed)
{
    const Fp &beta = sys.g1Beta();
    const Fp one = Fp::one(&sys.fpCtx());
    EXPECT_FALSE(beta.equals(one));
    EXPECT_TRUE(beta.sqr().mul(beta).equals(one));

    const BigInt &r = sys.info().r;
    const BigInt &lambda = sys.g1Lambda();
    EXPECT_EQ((lambda * lambda + lambda + BigInt(u64{1})).mod(r),
              BigInt(u64{0}));

    Rng rng(seed);
    for (int i = 0; i < 3; ++i) {
        const AffinePt<Fp> p = sys.randomG1(rng);
        const AffinePt<Fp> phi = AffinePt<Fp>::make(p.x.mul(beta), p.y);
        EXPECT_TRUE(scalarMul(sys.g1Curve(), p, lambda).equals(phi)) << i;
    }

    EXPECT_TRUE(endoPairsInjective(lambda, r));
    EXPECT_TRUE(sys.endoScalarsInjective());
}

template <typename TW>
void
checkAgainstOracle(const CurveSystem<TW> &sys, u64 seed)
{
    Rng rng(seed);
    const auto point = [&] { return sys.randomG1(rng); };
    const auto term = [&](u64 a, u64 b) {
        return EndoTerm<Fp>{point(), a, b};
    };

    std::vector<std::vector<EndoTerm<Fp>>> groups;
    // Size 1 with each edge scalar pair, and random ones.
    for (const auto &[a, b] : std::vector<std::pair<u64, u64>>{
             {0, 0}, {1, 0}, {0, 1}, {kMax64, kMax64}, {kMax64, 0},
             {0, kMax64}, {rng.next(), rng.next()}})
        groups.push_back({term(a, b)});
    // Size 2 and 16, random scalars.
    for (const size_t n : {2, 16}) {
        std::vector<EndoTerm<Fp>> g;
        for (size_t k = 0; k < n; ++k)
            g.push_back(term(rng.next(), rng.next()));
        groups.push_back(g);
    }
    // A duplicated point with the same scalar: the second addition of
    // the top digit hits jacAddAffine's doubling branch.
    {
        const EndoTerm<Fp> t = term(rng.next(), rng.next());
        groups.push_back({t, t, term(rng.next(), rng.next())});
    }
    // P and -P with equal scalars: the sum is infinity.
    {
        const EndoTerm<Fp> t = term(rng.next(), rng.next());
        EndoTerm<Fp> neg = t;
        neg.point = t.point.negate();
        groups.push_back({t, neg});
    }
    // An infinity input contributes nothing; an empty group is O.
    groups.push_back({EndoTerm<Fp>{AffinePt<Fp>::atInfinity(), 5, 7},
                      term(rng.next(), rng.next())});
    groups.push_back({});

    // One call: every group's tables share one batch inversion.
    const std::vector<JacPt<Fp>> sums =
        msmEndo(sys.g1Curve(), sys.g1Beta(), groups);
    ASSERT_EQ(sums.size(), groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
        EXPECT_TRUE(jacToAffine(sums[g], &sys.fpCtx())
                        .equals(oracleSum(sys, groups[g])))
            << "group " << g;
        // The same group alone gives the same point.
        const JacPt<Fp> alone =
            msmEndo(sys.g1Curve(), sys.g1Beta(), {groups[g]})[0];
        EXPECT_TRUE(jacToAffine(alone, &sys.fpCtx())
                        .equals(jacToAffine(sums[g], &sys.fpCtx())))
            << "group " << g;
    }
    EXPECT_TRUE(sums[sums.size() - 3].isInfinity()); // P + -P
    EXPECT_TRUE(sums.back().isInfinity());            // empty
    EXPECT_TRUE(sums[0].isInfinity());                // (0, 0)
}

class MsmCatalog : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MsmCatalog, EndomorphismConstants)
{
    checkConstants(curveSystem12(GetParam()), 0x3e0);
}

TEST_P(MsmCatalog, MatchesDoubleAndAdd)
{
    checkAgainstOracle(curveSystem12(GetParam()), 0x3e1);
}

INSTANTIATE_TEST_SUITE_P(Catalog12, MsmCatalog,
                         ::testing::Values("BN254N", "BN462", "BN638",
                                           "BLS12-381", "BLS12-446",
                                           "BLS12-638"),
                         [](const auto &info) {
                             std::string s = info.param;
                             for (char &c : s) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return s;
                         });

TEST(Msm, EndomorphismConstantsBLS24_509)
{
    checkConstants(curveSystem24("BLS24-509"), 0x3e2);
}

TEST(Msm, MatchesDoubleAndAddBLS24_509)
{
    checkAgainstOracle(curveSystem24("BLS24-509"), 0x3e3);
}

TEST(Msm, WnafRecoding)
{
    Rng rng(0x3e4);
    std::vector<u64> values = {0, 1, 2, 7, 8, 9, 15, 16, 0x5555555555555555,
                               kMax64 >> 1, kMax64 - 1, kMax64};
    for (int i = 0; i < 200; ++i)
        values.push_back(rng.next() >> rng.below(64));
    for (const u64 k : values) {
        SCOPED_TRACE(k);
        const detail::Wnaf64 w = detail::wnaf64(k);
        ASSERT_LE(w.len, 65);
        BigInt sum;
        int lastNonzero = 1000, maxAbs = 0; // digits run MSB first
        for (int i = w.len; i-- > 0;) {
            const int d = w.digit[static_cast<size_t>(i)];
            sum = (sum << 1) + BigInt(static_cast<i64>(d));
            if (d == 0)
                continue;
            EXPECT_TRUE(d % 2 != 0 && d >= -7 && d <= 7) << d;
            // Width-4 NAF: at most one nonzero digit in any 4 in a row.
            EXPECT_GE(lastNonzero - i, 4);
            lastNonzero = i;
            maxAbs = std::max(maxAbs, std::abs(d));
        }
        EXPECT_EQ(sum, BigInt(k));
        EXPECT_EQ(w.maxAbs, maxAbs);
        if (w.len > 0) {
            EXPECT_NE(w.digit[static_cast<size_t>(w.len - 1)], 0);
        }
    }
}

TEST(Msm, LatticeReductionMatchesBruteForce)
{
    // Every cube root of unity lambda mod small primes r = 1 mod 3.
    int checked = 0;
    for (i64 r = 7; r < 400; r += 6) {
        if (!isProbablePrime(BigInt(r)))
            continue;
        for (i64 lambda = 2; lambda < r; ++lambda) {
            if ((lambda * lambda + lambda + 1) % r != 0)
                continue;
            // min u^2 + v^2 over nonzero (u, v), u = -v lambda mod r
            // taken nearest zero; v = 0 leaves u = +-r.
            i64 best = r * r;
            for (i64 v = 1; v <= r; ++v) {
                i64 u = ((-v * lambda) % r + r) % r;
                if (u > r / 2)
                    u -= r;
                best = std::min(best, u * u + v * v);
            }
            EXPECT_EQ(endoLatticeShortestSq(BigInt(lambda), BigInt(r)),
                      BigInt(best))
                << "r " << r << " lambda " << lambda;
            EXPECT_FALSE(endoPairsInjective(BigInt(lambda), BigInt(r)));
            checked++;
        }
    }
    EXPECT_GT(checked, 20);
}

} // namespace
} // namespace finesse
