/**
 * @file
 * Strict number parsing (see support/numparse.h for the grammar).
 */
#include "support/numparse.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <string>

namespace finesse {

namespace {

/** Magnitude of a strict integer literal; sets @p negative. */
std::optional<u64>
parseMagnitude(std::string_view text, bool &negative)
{
    negative = !text.empty() && text[0] == '-';
    if (!text.empty() && (text[0] == '-' || text[0] == '+'))
        text.remove_prefix(1);
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        text.remove_prefix(2);
    } else if (text.empty() || (text.size() > 1 && text[0] == '0')) {
        return std::nullopt;
    }
    u64 v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

} // namespace

std::optional<int>
parseInt(std::string_view text, int lo, int hi)
{
    bool negative;
    const std::optional<u64> m = parseMagnitude(text, negative);
    if (!m || *m > u64{1} << 32)
        return std::nullopt;
    const i64 v = negative ? -static_cast<i64>(*m) : static_cast<i64>(*m);
    if (v < lo || v > hi)
        return std::nullopt;
    return static_cast<int>(v);
}

std::optional<u64>
parseU64(std::string_view text)
{
    bool negative;
    const std::optional<u64> m = parseMagnitude(text, negative);
    if (!m || (negative && *m != 0))
        return std::nullopt;
    return m;
}

std::optional<double>
parseDouble(std::string_view text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    const std::string buf(text);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || errno == ERANGE ||
        !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace finesse
