/**
 * @file
 * Curve catalog data and family derivations.
 *
 * Parameter provenance: BN254N (Nogami et al.), BN462 (ISO/AIST), BN638
 * and BLS12-381 / BLS12-446 (literature values) verified by
 * tools/param_search; BLS12-638 and BLS24-509 use parameters generated
 * by the same tool (the published values were not recoverable offline;
 * bit lengths and family shape match Table 2 of the paper exactly).
 */
#include "curve/catalog.h"

#include "bigint/mont.h"
#include "support/common.h"

namespace finesse {

CurveInfo
deriveCurveInfo(const CurveDef &def)
{
    CurveInfo info;
    info.def = def;
    const BigInt &x = def.x;
    const BigInt one(u64{1});
    switch (def.family) {
      case CurveFamily::BN: {
        const BigInt x2 = x * x;
        const BigInt x3 = x2 * x;
        const BigInt x4 = x2 * x2;
        info.p = BigInt(u64{36}) * x4 + BigInt(u64{36}) * x3 +
                 BigInt(u64{24}) * x2 + BigInt(u64{6}) * x + one;
        info.t = BigInt(u64{6}) * x2 + one;
        info.r = info.p + one - info.t;
        info.k = 12;
        break;
      }
      case CurveFamily::BLS12: {
        const BigInt x2 = x * x;
        info.r = x2 * x2 - x2 + one;
        info.t = x + one;
        info.p = ((x - one).pow(2) * info.r).divExact(BigInt(u64{3})) + x;
        info.k = 12;
        break;
      }
      case CurveFamily::BLS24: {
        const BigInt x4 = (x * x).pow(2);
        info.r = x4 * x4 - x4 + one;
        info.t = x + one;
        info.p = ((x - one).pow(2) * info.r).divExact(BigInt(u64{3})) + x;
        info.k = 24;
        break;
      }
    }
    FINESSE_REQUIRE(isProbablePrime(info.p), def.name, ": p not prime");
    FINESSE_REQUIRE(isProbablePrime(info.r), def.name, ": r not prime");
    FINESSE_REQUIRE((info.p % BigInt(u64{6})) == one, def.name,
                    ": p != 1 mod 6");
    return info;
}

const std::vector<CurveDef> &
curveCatalog()
{
    static const std::vector<CurveDef> curves = {
        {"BN254N", CurveFamily::BN,
         -BigInt::fromString("0x4080000000000001"), 100},
        {"BN462", CurveFamily::BN,
         BigInt::fromString("0x4001fffffffffffffffffffffbfff"), 130},
        {"BN638", CurveFamily::BN,
         BigInt::fromString("0x3ffffffefffffffffffffff00000000000000001"),
         153},
        {"BLS12-381", CurveFamily::BLS12,
         -BigInt::fromString("0xd201000000010000"), 123},
        {"BLS12-446", CurveFamily::BLS12,
         -BigInt::fromString("0x6008204000000020001"), 130},
        {"BLS12-638", CurveFamily::BLS12,
         -BigInt::fromString("0x60c0321793083d9a9e3ce3a1e31"), 148},
        {"BLS24-509", CurveFamily::BLS24,
         -BigInt::fromString("0x7f90b57fc6ff8"), 192},
    };
    return curves;
}

const CurveDef &
findCurve(const std::string &name)
{
    for (const auto &c : curveCatalog()) {
        if (c.name == name)
            return c;
    }
    fatal("unknown curve: ", name);
}

u64
catalogHash()
{
    // FNV-1a over every field of every CurveDef, in catalog order.
    // Folding in BigInt::hashValue() covers the family parameter; the
    // name bytes cover renames; the order covers reorderings (group
    // ids index into the grouping, which iterates the catalog).
    u64 h = 14695981039346656037ull;
    const auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const CurveDef &def : curveCatalog()) {
        for (const char c : def.name)
            mix(static_cast<u8>(c));
        mix(static_cast<u64>(def.family));
        mix(def.x.hashValue());
        mix(static_cast<u64>(def.securityBits));
    }
    return h;
}

} // namespace finesse
