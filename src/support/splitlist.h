/**
 * @file
 * The one parser of the comma lists in flags (serve's index and
 * workload lists).
 */
#ifndef FINESSE_SUPPORT_SPLITLIST_H_
#define FINESSE_SUPPORT_SPLITLIST_H_

#include <string>
#include <vector>

namespace finesse {

/** Split @p text on @p sep, dropping empty fields ("a,,b," -> {a, b}). */
inline std::vector<std::string>
splitList(const std::string &text, char sep = ',')
{
    std::vector<std::string> out;
    size_t from = 0;
    while (from <= text.size()) {
        size_t at = text.find(sep, from);
        if (at == std::string::npos)
            at = text.size();
        if (at > from)
            out.push_back(text.substr(from, at - from));
        from = at + 1;
    }
    return out;
}

} // namespace finesse

#endif // FINESSE_SUPPORT_SPLITLIST_H_
