/**
 * @file
 * Minimal configuration-file reader. The paper's toolchain is driven by
 * YAML configuration files; this reader supports the flat subset needed
 * to describe a design point:
 *
 *     # comment
 *     curve = BLS12-381
 *     hw.long_lat = 38
 *     variants.mul12 = karatsuba
 *
 * Keys are dotted strings; values are strings/integers/doubles/bools.
 */
#ifndef FINESSE_SUPPORT_CONFIG_H_
#define FINESSE_SUPPORT_CONFIG_H_

#include <map>
#include <sstream>
#include <string>

#include "support/common.h"
#include "support/numparse.h"

namespace finesse {

/** Flat key/value configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse from text; fatal on malformed lines. */
    static Config
    parse(const std::string &text)
    {
        Config cfg;
        std::istringstream in(text);
        std::string line;
        int lineNo = 0;
        while (std::getline(in, line)) {
            ++lineNo;
            const size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.erase(hash);
            const std::string trimmed = trim(line);
            if (trimmed.empty())
                continue;
            const size_t eq = trimmed.find('=');
            FINESSE_REQUIRE(eq != std::string::npos,
                            "config line ", lineNo, ": missing '='");
            const std::string key = trim(trimmed.substr(0, eq));
            const std::string value = trim(trimmed.substr(eq + 1));
            FINESSE_REQUIRE(!key.empty(), "config line ", lineNo,
                            ": empty key");
            cfg.values_[key] = value;
        }
        return cfg;
    }

    bool has(const std::string &key) const { return values_.count(key); }

    std::string
    getString(const std::string &key, const std::string &dflt = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }

    /** Strict integer in [@p lo, @p hi]; fatal, naming the key. */
    int
    getInt(const std::string &key, int dflt = 0,
           int lo = std::numeric_limits<int>::min(),
           int hi = std::numeric_limits<int>::max()) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        const std::optional<int> v = parseInt(it->second, lo, hi);
        if (!v)
            fatal("config key '", key, "': not an integer in [", lo,
                  ", ", hi, "]: ", it->second);
        return *v;
    }

    double
    getDouble(const std::string &key, double dflt = 0) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        const std::optional<double> v = parseDouble(it->second);
        if (!v)
            fatal("config key '", key, "': not a number: ", it->second);
        return *v;
    }

    bool
    getBool(const std::string &key, bool dflt = false) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        const std::string &v = it->second;
        if (v == "true" || v == "1" || v == "yes" || v == "on")
            return true;
        if (v == "false" || v == "0" || v == "no" || v == "off")
            return false;
        fatal("config key '", key, "': not a boolean: ", v);
    }

    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

  private:
    static std::string
    trim(const std::string &s)
    {
        const size_t b = s.find_first_not_of(" \t\r\n");
        if (b == std::string::npos)
            return "";
        const size_t e = s.find_last_not_of(" \t\r\n");
        return s.substr(b, e - b + 1);
    }

    std::map<std::string, std::string> values_;
};

} // namespace finesse

#endif // FINESSE_SUPPORT_CONFIG_H_
