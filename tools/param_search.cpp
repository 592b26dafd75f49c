/**
 * @file
 * Curve-parameter verification and search tool. Checks candidate family
 * parameters x for BN / BLS12 / BLS24 (p and r prime, target bit
 * lengths from Table 2 of the paper) and, when a candidate fails,
 * searches nearby low-Hamming-weight values. The verified values are
 * baked into src/curve/catalog.cpp.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bigint/mont.h"

using namespace finesse;

namespace {

struct FamilyParams
{
    BigInt p, r, t;
};

FamilyParams
bn(const BigInt &x)
{
    const BigInt x2 = x * x;
    const BigInt x3 = x2 * x;
    const BigInt x4 = x2 * x2;
    FamilyParams f;
    f.p = BigInt(u64{36}) * x4 + BigInt(u64{36}) * x3 +
          BigInt(u64{24}) * x2 + BigInt(u64{6}) * x + BigInt(u64{1});
    f.t = BigInt(u64{6}) * x2 + BigInt(u64{1});
    f.r = f.p + BigInt(u64{1}) - f.t;
    return f;
}

FamilyParams
bls12(const BigInt &x)
{
    const BigInt x2 = x * x;
    FamilyParams f;
    f.r = x2 * x2 - x2 + BigInt(u64{1});
    f.t = x + BigInt(u64{1});
    f.p = ((x - BigInt(u64{1})).pow(2) * f.r) / BigInt(u64{3}) + x;
    return f;
}

FamilyParams
bls24(const BigInt &x)
{
    const BigInt x4 = (x * x).pow(2);
    FamilyParams f;
    f.r = x4 * x4 - x4 + BigInt(u64{1});
    f.t = x + BigInt(u64{1});
    f.p = ((x - BigInt(u64{1})).pow(2) * f.r) / BigInt(u64{3}) + x;
    return f;
}

bool
check(const std::string &name, const std::string &family, const BigInt &x,
      int wantP, int wantR, bool verbose = true)
{
    FamilyParams f;
    if (family == "bn") {
        f = bn(x);
    } else if (family == "bls12") {
        if (!(x.mod(BigInt(u64{3})) == BigInt(u64{1})))
            return false;
        f = bls12(x);
        const BigInt rec =
            ((x - BigInt(u64{1})).pow(2) * f.r) % BigInt(u64{3});
        if (!rec.isZero())
            return false;
    } else {
        if (!(x.mod(BigInt(u64{3})) == BigInt(u64{1})))
            return false;
        f = bls24(x);
    }
    const bool ok = f.p.bitLength() == wantP && f.r.bitLength() == wantR &&
                    (f.p % BigInt(u64{6})) == BigInt(u64{1}) &&
                    isProbablePrime(f.p) && isProbablePrime(f.r);
    if (verbose || ok) {
        std::printf("%-12s x=%s  log p=%d  log r=%d  p%%6=%s  pP=%d rP=%d%s\n",
                    name.c_str(), x.toHexString().c_str(), f.p.bitLength(),
                    f.r.bitLength(), (f.p % BigInt(u64{6})).toString().c_str(),
                    isProbablePrime(f.p), isProbablePrime(f.r),
                    ok ? "  OK" : "");
    }
    return ok;
}

/** Search x with |x| around 2^bits and low Hamming weight. */
void
searchBls(const std::string &family, int bitsLow, int bitsHigh, int wantP,
          int wantR, bool negative)
{
    // Enumerate x = +-(2^a +- 2^b +- 2^c +- 1) style combinations.
    for (int a = bitsLow; a <= bitsHigh; ++a) {
        for (int b = 1; b < a; ++b) {
            for (int c = 0; c < b; ++c) {
                for (int sb = -1; sb <= 1; sb += 2) {
                    for (int sc = -1; sc <= 1; sc += 2) {
                        BigInt x = (BigInt(u64{1}) << a);
                        x = sb > 0 ? x + (BigInt(u64{1}) << b)
                                   : x - (BigInt(u64{1}) << b);
                        x = sc > 0 ? x + (BigInt(u64{1}) << c)
                                   : x - (BigInt(u64{1}) << c);
                        if (negative)
                            x = -x;
                        if (check("cand", family, x, wantP, wantR, false)) {
                            std::printf("FOUND %s: x = %s%s\n",
                                        family.c_str(),
                                        negative ? "-" : "",
                                        x.abs().toHexString().c_str());
                            return;
                        }
                    }
                }
            }
        }
    }
    std::printf("search failed for %s\n", family.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Known / recalled candidates.
    const BigInt bn254n = -((BigInt(u64{1}) << 62) + (BigInt(u64{1}) << 55) +
                            BigInt(u64{1}));
    check("BN254N", "bn", bn254n, 254, 254);

    const BigInt bn462 = (BigInt(u64{1}) << 114) + (BigInt(u64{1}) << 101) -
                         (BigInt(u64{1}) << 14) - BigInt(u64{1});
    check("BN462", "bn", bn462, 462, 462);

    const BigInt bn638 = (BigInt(u64{1}) << 158) - (BigInt(u64{1}) << 128) -
                         (BigInt(u64{1}) << 68) + BigInt(u64{1});
    check("BN638", "bn", bn638, 638, 638);

    const BigInt bls381 =
        -((BigInt(u64{1}) << 63) + (BigInt(u64{1}) << 62) +
          (BigInt(u64{1}) << 60) + (BigInt(u64{1}) << 57) +
          (BigInt(u64{1}) << 48) + (BigInt(u64{1}) << 16));
    check("BLS12-381", "bls12", bls381, 381, 255);

    const BigInt bls446 =
        -((BigInt(u64{1}) << 74) + (BigInt(u64{1}) << 73) +
          (BigInt(u64{1}) << 63) + (BigInt(u64{1}) << 57) +
          (BigInt(u64{1}) << 50) + (BigInt(u64{1}) << 17) + BigInt(u64{1}));
    check("BLS12-446", "bls12", bls446, 446, 299);

    const BigInt bls24509 = -((BigInt(u64{1}) << 51) +
                              (BigInt(u64{1}) << 28) -
                              (BigInt(u64{1}) << 11) + BigInt(u64{1}));
    check("BLS24-509", "bls24", bls24509, 509, 408);

    if (argc > 1 && std::string(argv[1]) == "search") {
        // BLS12-638: log p = 638, log r = 427 -> |x| ~ 107 bits.
        searchBls("bls12", 106, 107, 638, 427, true);
        searchBls("bls12", 106, 107, 638, 427, false);
        // Fallback searches for any primary candidate that failed above.
        searchBls("bls24", 50, 50, 509, 408, true);
        searchBls("bls24", 50, 50, 509, 408, false);
    }
    return 0;
}
