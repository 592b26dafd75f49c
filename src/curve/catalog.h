/**
 * @file
 * Curve catalog: the seven pairing-friendly curves of the paper's
 * evaluation (Table 2) across three families, plus family parameter
 * derivation (p, r, t from the family polynomial in x).
 *
 * A catalog entry is its family and x plus its CurveFacts: what
 * CurveSystem would otherwise search for (b, twist type, tower
 * non-residues, generators, beta/lambda), pinned as data. p, r and t
 * are always computed from x. deriveCurveFacts runs the searches; it
 * serves curves that are not in the catalog and test_allcurves, which
 * holds every catalog entry equal to its derivation.
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

/** Sextic twist type: D (divide, b/xi) or M (multiply, b*xi). */
enum class TwistType { D, M };

inline const char *
toString(TwistType t)
{
    return t == TwistType::D ? "D" : "M";
}

/**
 * A curve's searched-for facts as data: the smallest b > 0 with
 * #E(Fp) = p + 1 - t, the twist type whose order r divides, the tower
 * non-residues (u^2 = q, xi = xi0 + xi1 u), the G1 and G2 generators
 * and the G1 endomorphism phi(x, y) = (beta x, y) = [lambda]. Numbers
 * are canonical: coordinates and beta in [0, p), G2 coordinates as
 * toFpCoeffs lists over Fp, lambda in [1, r).
 */
struct CurveFacts
{
    i64 b = 0;
    TwistType twist = TwistType::D;
    i64 q = 0, xi0 = 0, xi1 = 0;
    BigInt g1x, g1y;
    std::vector<BigInt> g2x, g2y;
    BigInt beta, lambda;

    bool operator==(const CurveFacts &) const = default;
};

/** Curve definition: family and x, plus its facts. */
struct CurveDef
{
    std::string name;
    CurveFamily family;
    BigInt x;         ///< family parameter (signed)
    int securityBits; ///< SexTNFS security estimate (recorded, Table 2)
    /** What CurveSystem loads; deriveCurveFacts finds them. */
    CurveFacts facts;
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

/**
 * Search a curve's facts from its family and x alone (def.facts is
 * ignored): the tower non-residues (searchTowerNonResidues), the
 * smallest b <= 64 whose curve has p + 1 - t points and the twist
 * whose order r divides (both by [n]P = O on sampled points),
 * cofactor-cleared generators from a deterministic x scan, and
 * beta/lambda. Every sample comes from one fixed-seed RNG, so the
 * result is a pure function of (family, x). Fatal when a search
 * fails.
 */
CurveFacts deriveCurveFacts(const CurveDef &def);

/**
 * @p def as a curveCatalog() entry in C++ literal form, facts included:
 * a derived curve is added to the catalog by pasting this block.
 */
std::string catalogEntryLiteral(const CurveDef &def);

/** The seven evaluation curves (Table 2). */
const std::vector<CurveDef> &curveCatalog();

/** Look up a catalog curve by name; fatal if unknown. */
const CurveDef &findCurve(const std::string &name);

/**
 * FNV-1a fingerprint of a list of curve definitions: names, families,
 * family parameters, security estimates and every pinned fact.
 */
u64 hashCatalog(const std::vector<CurveDef> &defs);

/**
 * hashCatalog(curveCatalog()). Part of every artifact-cache key
 * (core/artifacts.h), so entries written under a different catalog
 * read as misses instead of serving stale curve constants.
 */
u64 catalogHash();

} // namespace finesse

#endif // FINESSE_CURVE_CATALOG_H_
