/**
 * @file
 * The one strict number parser of every text input. Integers: an
 * optional sign, then "0", a decimal numeral without leading zeros
 * (C's base-0 parsing reads "038" as octal 3), or 0x hex. Reals: one
 * finite strtod value. Nothing may follow the number.
 */
#ifndef FINESSE_SUPPORT_NUMPARSE_H_
#define FINESSE_SUPPORT_NUMPARSE_H_

#include <limits>
#include <optional>
#include <string_view>

#include "support/common.h"

namespace finesse {

/** Integer in [@p lo, @p hi]; nullopt on anything else. */
std::optional<int> parseInt(std::string_view text,
                            int lo = std::numeric_limits<int>::min(),
                            int hi = std::numeric_limits<int>::max());

/** Integer in [0, 2^64) (seeds); nullopt on anything else. */
std::optional<u64> parseU64(std::string_view text);

/** Finite real number; nullopt on junk, overflow, inf or nan. */
std::optional<double> parseDouble(std::string_view text);

} // namespace finesse

#endif // FINESSE_SUPPORT_NUMPARSE_H_
