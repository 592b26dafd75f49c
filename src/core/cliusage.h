/**
 * @file
 * The single source of truth for finesse_cli's surface: every
 * subcommand and every accepted flag, each with a one-line meaning.
 * `--help` renders these tables verbatim, and tests/test_cli_help.cpp
 * audits them two ways — every table entry must appear in the help
 * output, and every `--flag` / command literal parsed by
 * tools/finesse_cli.cpp must have a table entry. Adding a flag
 * without documenting it here is a test failure, not a doc drift.
 */
#ifndef FINESSE_CORE_CLIUSAGE_H_
#define FINESSE_CORE_CLIUSAGE_H_

#include <cstddef>
#include <string>

namespace finesse {

struct CliDoc
{
    const char *name; ///< as printed; flags keep their =<value> shape
    const char *help; ///< one line of semantics
};

inline constexpr CliDoc kCliCommands[] = {
    {"compile", "trace + optimize + schedule + encode; print statistics"},
    {"validate", "compile, then cross-validate on the functional simulator"},
    {"simulate", "compile, then cycle-accurate simulation"},
    {"area", "compile, then area/timing report (1/4/8 cores)"},
    {"dse", "exhaustive operator-variant sweep on the configured hardware"},
    {"dse-search",
     "seeded Pareto-frontier search over variants x hardware; "
     "deterministic for a fixed --search-seed"},
    {"disasm", "compile and print the head of the encoded binary"},
    {"deploy",
     "compile and save a program image: finesse_cli deploy <config> "
     "<image-file>"},
    {"exec",
     "execute a saved image on hex inputs: finesse_cli exec "
     "<image-file> 0x12 0x34 ..."},
    {"serve",
     "batch pairing-verification server: reads request commands from "
     "stdin (or one TCP client with --serve-port), fuses admitted "
     "requests into RLC multi-pairings, prints verdicts and counters"},
    {"verify-batch",
     "one-shot synchronous batch verification of a synthetic --workload "
     "mix; exits non-zero if any verdict disagrees with per-request "
     "single verification or with the --corrupt expectation"},
};

inline constexpr CliDoc kCliFlags[] = {
    {"--passes=<list>",
     "comma-separated IROpt passes (ablation), a subset of "
     "constfold,zerooneprop,strengthreduce,gvn,dce; the backend "
     "always runs all four stages"},
    {"--pass-stats", "print the per-pass instruction/time attribution"},
    {"--no-trace-cache", "disable the front-end trace cache"},
    {"--jobs=N",
     "worker threads: `dse` sweep fan-out and `serve` verifier lanes "
     "(0 = hardware concurrency, 1 = serial)"},
    {"--search-seed=N",
     "RNG seed of the `dse-search` loop (default 1); a fixed seed "
     "gives a bit-identical frontier for any --jobs"},
    {"--generations=N", "`dse-search` generations (default 8)"},
    {"--population=N", "`dse-search` genomes per generation (default 32)"},
    {"--objective={cycles|throughput|thpt-per-area|area}",
     "scalar winner of `dse-search` (default thpt-per-area)"},
    {"--artifact-cache=DIR",
     "persistent artifact cache at DIR (overrides "
     "FINESSE_ARTIFACT_CACHE; empty DIR disables)"},
    {"--batch=N",
     "`serve`/`verify-batch`: max requests fused into one RLC "
     "multi-pairing (default 16)"},
    {"--queue=N",
     "`serve`: admission-queue bound; a submit against a full queue "
     "is bounced with a retry-after hint (default 256)"},
    {"--serve-port=N",
     "`serve`: accept one TCP client on 127.0.0.1:N instead of "
     "reading stdin (N=0 picks a free port, printed in the banner)"},
    {"--serve-seed=N",
     "`serve`/`verify-batch`: base seed of the per-batch RLC scalars "
     "and of the synthetic workload generator (default 0x5e55e)"},
    {"--workload=kind:count,...",
     "`verify-batch` request mix over bls|kzg|zk, e.g. "
     "bls:8,kzg:4,zk:4 (default bls:16)"},
    {"--corrupt=<i,j,...>",
     "`verify-batch`: zero-based indices (into the concatenated "
     "--workload stream) to corrupt; these must verify as Reject"},
    {"--help", "print this help and exit 0"},
};

/** The full help text: one line per command and flag, aligned. */
inline std::string
cliUsageText()
{
    std::string out;
    out += "usage: finesse_cli <command> [config-file] [flags]\n";
    out += "  config-file: `key = value` lines (core/options.h); "
           "omitted = BN254N, paper hardware model\n";
    out += "commands:\n";
    for (const CliDoc &d : kCliCommands) {
        out += "  ";
        out += d.name;
        for (size_t n = std::string(d.name).size(); n < 14; ++n)
            out += ' ';
        out += d.help;
        out += '\n';
    }
    out += "flags:\n";
    for (const CliDoc &d : kCliFlags) {
        out += "  ";
        out += d.name;
        const size_t len = std::string(d.name).size();
        if (len < 26) {
            for (size_t n = len; n < 26; ++n)
                out += ' ';
        } else {
            out += "\n                            ";
        }
        out += d.help;
        out += '\n';
    }
    return out;
}

} // namespace finesse

#endif // FINESSE_CORE_CLIUSAGE_H_
