/**
 * @file
 * Curve catalog: the seven pairing-friendly curves of the paper's
 * evaluation (Table 2) across three families, plus family parameter
 * derivation (p, r, t from the family polynomial in x).
 */
#ifndef FINESSE_CURVE_CATALOG_H_
#define FINESSE_CURVE_CATALOG_H_

#include <string>
#include <vector>

#include "bigint/bigint.h"

namespace finesse {

enum class CurveFamily { BN, BLS12, BLS24 };

inline const char *
toString(CurveFamily f)
{
    switch (f) {
      case CurveFamily::BN:
        return "BN";
      case CurveFamily::BLS12:
        return "BLS12";
      case CurveFamily::BLS24:
        return "BLS24";
    }
    return "?";
}

/** Static curve definition (everything else is derived). */
struct CurveDef
{
    std::string name;
    CurveFamily family;
    BigInt x;         ///< family parameter (signed)
    int securityBits; ///< SexTNFS security estimate (recorded, Table 2)
};

/** Derived curve numbers. */
struct CurveInfo
{
    CurveDef def;
    BigInt p, r, t;
    int k = 12;

    int logP() const { return p.bitLength(); }
    int logR() const { return r.bitLength(); }
    int logT() const { return t.abs().bitLength(); }
    int kLogP() const { return k * logP(); }
};

/** Derive p, r, t and k from a curve definition (validates primality). */
CurveInfo deriveCurveInfo(const CurveDef &def);

/** The seven evaluation curves (Table 2). */
const std::vector<CurveDef> &curveCatalog();

/** Look up a catalog curve by name; fatal if unknown. */
const CurveDef &findCurve(const std::string &name);

/**
 * FNV-1a fingerprint of the full curve catalog (names, families,
 * family parameters, security estimates). Part of every artifact-cache
 * key (core/artifacts.h), so entries written under a different
 * catalog read as misses instead of serving stale curve constants.
 */
u64 catalogHash();

} // namespace finesse

#endif // FINESSE_CURVE_CATALOG_H_
