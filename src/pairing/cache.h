/**
 * @file
 * Process-wide cache of constructed curve systems. Curve setup involves
 * primality tests, cofactor derivation and tower validation; tests and
 * benchmarks share one instance per curve.
 */
#ifndef FINESSE_PAIRING_CACHE_H_
#define FINESSE_PAIRING_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pairing/system.h"

namespace finesse {

namespace detail {

/**
 * Returns the shared @p System for catalog curve @p name. Guarded by
 * a mutex: parallel sweep workers may race to first use of a curve.
 * Construction happens under the lock (setup is expensive but once
 * per curve per process); references stay valid forever.
 */
template <typename System>
const System &
sharedCurveSystem(const std::string &name)
{
    static std::mutex mtx;
    static std::map<std::string, std::unique_ptr<System>> cache;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, std::make_unique<System>(findCurve(name)))
                 .first;
    return *it->second;
}

} // namespace detail

/** Returns the shared CurveSystem for a k = 12 catalog curve. */
inline const CurveSystem12 &
curveSystem12(const std::string &name)
{
    return detail::sharedCurveSystem<CurveSystem12>(name);
}

/** Returns the shared CurveSystem for a k = 24 catalog curve. */
inline const CurveSystem24 &
curveSystem24(const std::string &name)
{
    return detail::sharedCurveSystem<CurveSystem24>(name);
}

} // namespace finesse

#endif // FINESSE_PAIRING_CACHE_H_
