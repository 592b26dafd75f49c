/**
 * @file
 * Exact-match check of deterministic outputs against the committed
 * golden file tests/golden/catalog.txt: one `key value...` line per
 * pinned output, `#` comments. A mismatch fails the test and prints
 * the replacement line; a changed golden needs a CHANGES.md note that
 * says why it changed.
 */
#ifndef FINESSE_TESTS_GOLDEN_H_
#define FINESSE_TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace finesse {

/** The parsed golden file (key -> rest of the line), read once. */
inline const std::map<std::string, std::string> &
goldenTable()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(FINESSE_GOLDEN_FILE);
        EXPECT_TRUE(in.good()) << "cannot read " << FINESSE_GOLDEN_FILE;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const size_t sp = line.find(' ');
            t[line.substr(0, sp)] =
                sp == std::string::npos ? "" : line.substr(sp + 1);
        }
        return t;
    }();
    return table;
}

/** printf into a std::string (golden values are formatted text). */
inline std::string
goldenFormat(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** Fail unless the golden line for @p key is exactly @p value. */
inline void
expectGolden(const std::string &key, const std::string &value)
{
    const auto &table = goldenTable();
    const auto it = table.find(key);
    if (it != table.end() && it->second == value)
        return;
    ADD_FAILURE() << "golden mismatch for '" << key << "' (file has: "
                  << (it == table.end() ? "<missing>" : it->second)
                  << ")\nreplacement line:\n"
                  << key << ' ' << value;
}

} // namespace finesse

#endif // FINESSE_TESTS_GOLDEN_H_
