/**
 * @file
 * Agility demonstration (paper Sec. 4.5, "For Pairing Researchers"):
 * bring up a accelerator for a curve that is NOT in the catalog, end
 * to end, in seconds.
 *
 * A researcher proposes new BN parameters (say, a small-field variant
 * for protocol experimentation). The framework:
 *   1. searches a fresh family parameter x with prime p, r;
 *   2. derives the curve's facts (deriveCurveFacts: tower non-residues,
 *      b, twist type, generators, beta/lambda) and prints them as a
 *      catalog entry; the curve system loads them and checks each
 *      (irreducibility, on-curve and order-r generators, the
 *      endomorphism, chain exponents);
 *   3. checks bilinearity natively;
 *   4. compiles the accelerator program and cross-validates it.
 * No hand-derived constants anywhere: exactly the re-engineering cost
 * the framework eliminates. To add the curve to the catalog, paste the
 * printed entry into curveCatalog() (src/curve/catalog.cpp) and its
 * name into test_allcurves' curve list, whose FactsMatchDerivation
 * test then holds the entry equal to its derivation.
 */
#include <chrono>
#include <cstdio>

#include "compiler/codegen.h"
#include "core/framework.h"
#include "sim/functional.h"

using namespace finesse;

int
main()
{
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    // 1. A fresh BN parameter: ~2^30 scale (fast demo field).
    std::printf("searching new BN family parameter...\n");
    CurveDef def;
    def.name = "BN-demo";
    def.family = CurveFamily::BN;
    def.securityBits = 0; // research toy, not a security claim
    for (u64 m = (u64{1} << 30) + 1;; ++m) {
        const BigInt x = -BigInt(m);
        const BigInt x2 = x * x;
        const BigInt p = BigInt(u64{36}) * x2 * x2 +
                         BigInt(u64{36}) * x2 * x +
                         BigInt(u64{24}) * x2 + BigInt(u64{6}) * x +
                         BigInt(u64{1});
        const BigInt t = BigInt(u64{6}) * x2 + BigInt(u64{1});
        const BigInt r = p + BigInt(u64{1}) - t;
        if ((p % BigInt(u64{6})) == BigInt(u64{1}) &&
            isProbablePrime(p, 8) && isProbablePrime(r, 8)) {
            def.x = x;
            std::printf("  found x = -0x%llx  (%d-bit p) after %.2f s\n",
                        static_cast<unsigned long long>(m),
                        p.bitLength(), elapsed());
            break;
        }
    }

    // 2. Derive the facts, print them as a catalog entry, and bring
    // the curve system up from them: tower, twist, generators,
    // verified plan.
    def.facts = deriveCurveFacts(def);
    std::printf("derived facts at %.2f s, as a catalog entry:\n%s",
                elapsed(), catalogEntryLiteral(def).c_str());
    CurveSystem12 sys(def);
    std::printf("bring-up complete at %.2f s: b = %lld, %s-type twist, "
                "hard part = %s\n",
                elapsed(), static_cast<long long>(sys.b()),
                toString(sys.twistType()), toString(sys.plan().hard));

    Rng rng(8);
    const auto P = sys.randomG1(rng);
    const auto Q = sys.randomG2(rng);
    const auto e = sys.pair(P, Q);
    const BigInt a(u64{987654321});
    const auto aP = scalarMul(sys.g1Curve(), P, a);
    const bool bilinear = sys.pair(aP, Q).equals(powBig(e, a));
    std::printf("native bilinearity: %s (%.2f s)\n",
                bilinear ? "OK" : "FAILED", elapsed());

    // 4. Compile the accelerator and cross-validate.
    Module m = tracePairing12(sys, VariantConfig{});
    optimizeModule(m);
    const CompileResult res = runBackend(std::move(m), PipelineModel{});
    const CycleStats sim = simulateCycles(res.prog);
    std::printf("compiled: %zu instrs, %lld cycles, IPC %.2f (%.2f s)\n",
                res.instrs(), static_cast<long long>(sim.totalCycles),
                sim.ipc(), elapsed());

    // Cross-validation against the native engine.
    std::vector<BigInt> inputs;
    P.x.toFpCoeffs(inputs);
    P.y.toFpCoeffs(inputs);
    Q.x.toFpCoeffs(inputs);
    Q.y.toFpCoeffs(inputs);
    std::vector<BigInt> want;
    e.toFpCoeffs(want);
    FpCtx fp(sys.info().p);
    const bool simOk = runAllocated(res.prog, fp, inputs) == want;
    std::printf("compiled-vs-native validation: %s\n",
                simOk ? "PASS" : "FAIL");
    std::printf("\nnew curve, zero hand-derived constants, %.2f s "
                "total: the paper's agility claim.\n",
                elapsed());
    return (bilinear && simOk) ? 0 : 1;
}
