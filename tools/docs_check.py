#!/usr/bin/env python3
"""Docs lint: the user-facing surface must be documented, and the
docs must document nothing that is gone.

Forward checks, extracted from the code (never from a hand-kept list,
so the lint cannot go stale):

  1. every finesse_cli subcommand in src/core/cliusage.h
     (the table --help renders and test_cli_help audits),
  2. every FINESSE_* environment variable that appears as a string
     literal anywhere in src/, tools/, bench/ or tests/, and
  3. every config key requireKnownKeys (src/core/options.h) accepts,
     quoted in backticks (a key built as "variants.mul" + D counts
     as the prefix `variants.mul`, documented as `variants.mul<D>`)

must be mentioned in README.md or docs/operations.md. Reverse checks,
extracted from those two docs:

  4. every FINESSE_* name they mention must appear somewhere in the
     code (src/, tools/, bench/, tests/ or CMakeLists.txt), and
  5. every `--flag` they quote in backticks must be a flag of the
     kCliFlags table in cliusage.h.

Config keys have no reverse check: the docs quote a misspelt key on
purpose, as the example of an error.

Any failure fails the build -- an undocumented knob and a stale row
for a deleted one are both CI failures, not doc drift.

Usage: python3 tools/docs_check.py [--repo-root DIR]
"""

import argparse
import pathlib
import re
import sys

CODE_DIRS = ["src", "tools", "bench", "tests"]
DOC_FILES = ["README.md", "docs/operations.md"]
CODE_SUFFIXES = {".h", ".cpp", ".py"}


def cli_commands(root: pathlib.Path) -> set:
    """Subcommand names from the kCliCommands table in cliusage.h."""
    text = (root / "src/core/cliusage.h").read_text()
    m = re.search(r"kCliCommands\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if not m:
        sys.exit("docs_check: kCliCommands table not found in cliusage.h")
    names = re.findall(r'\{"([a-z0-9-]+)"', m.group(1))
    if len(names) < 5:
        sys.exit(f"docs_check: suspiciously few commands parsed: {names}")
    return set(names)


def cli_flags(root: pathlib.Path) -> set:
    """Flag names (up to any '=') from the kCliFlags table."""
    text = (root / "src/core/cliusage.h").read_text()
    m = re.search(r"kCliFlags\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if not m:
        sys.exit("docs_check: kCliFlags table not found in cliusage.h")
    names = re.findall(r'\{"(--[a-z0-9-]+)', m.group(1))
    if len(names) < 10:
        sys.exit(f"docs_check: suspiciously few flags parsed: {names}")
    return set(names)


def config_keys(root: pathlib.Path) -> tuple:
    """(keys, prefixes) of the `known` set in requireKnownKeys: the
    literal keys, and the prefixes of keys built as "<prefix>" + D."""
    text = (root / "src/core/options.h").read_text()
    m = re.search(r"std::set<std::string> known = \[\] \{(.*?)\}\(\);",
                  text, re.S)
    if not m:
        sys.exit("docs_check: requireKnownKeys set not found in options.h")
    prefixes = set(re.findall(r'"([a-z0-9_.]+)"\s*\+', m.group(1)))
    keys = set(re.findall(r'"([a-z0-9_.]+)"', m.group(1))) - prefixes
    if len(keys) < 10 or not prefixes:
        sys.exit(f"docs_check: suspiciously few config keys parsed: "
                 f"{sorted(keys)} {sorted(prefixes)}")
    return keys, prefixes


def quoted(name: str, docs: str) -> bool:
    """True when a backticked span in the docs starts with name as a
    whole key (`name`, `name = 7`, `name<D>`; not `name_x`)."""
    return re.search(rf"`{re.escape(name)}(?![a-z0-9_.])", docs) is not None


def code_text(root: pathlib.Path) -> str:
    """All code the reverse checks search: CODE_DIRS + CMakeLists.txt."""
    parts = [(root / "CMakeLists.txt").read_text()]
    for d in CODE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in CODE_SUFFIXES and path.is_file():
                parts.append(path.read_text())
    return "\n".join(parts)


def env_vars(code: str) -> set:
    """FINESSE_* env-var string literals anywhere in the code."""
    found = set(re.findall(r'"(FINESSE_[A-Z0-9_]+)"', code))
    if not found:
        sys.exit("docs_check: no FINESSE_* env vars found -- broken scan?")
    return found


def doc_names(docs: str) -> tuple:
    """FINESSE_* names and backticked `--flag` names in the docs."""
    env = set(re.findall(r"FINESSE_[A-Z0-9]+(?:_[A-Z0-9]+)*", docs))
    flags = set(re.findall(r"`(--[a-z0-9-]+)", docs))
    return env, flags


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo-root", default=".")
    args = ap.parse_args()
    root = pathlib.Path(args.repo_root)

    docs = ""
    for rel in DOC_FILES:
        path = root / rel
        if not path.is_file():
            print(f"docs_check: FAIL: required doc {rel} is missing")
            return 1
        docs += path.read_text()

    code = code_text(root)
    commands = cli_commands(root)
    env = env_vars(code)
    flags = cli_flags(root)
    keys, prefixes = config_keys(root)

    missing = []
    for name in sorted(commands):
        if name not in docs:
            missing.append(f"finesse_cli subcommand `{name}`")
    for name in sorted(env):
        if name not in docs:
            missing.append(f"environment variable {name}")
    for name in sorted(keys):
        if not quoted(name, docs):
            missing.append(f"config key `{name}`")
    for name in sorted(prefixes):
        if not re.search(rf"`{re.escape(name)}<", docs):
            missing.append(f"config keys `{name}<D>`")

    doc_env, doc_flags = doc_names(docs)
    stale = []
    for name in sorted(doc_env):
        if not re.search(rf"\b{name}\b", code):
            stale.append(f"environment variable {name} (not in the code)")
    for name in sorted(doc_flags - flags):
        stale.append(f"flag `{name}` (not in kCliFlags)")

    if missing:
        print("docs_check: FAIL: undocumented surface (add to README.md "
              "or docs/operations.md):")
        for item in missing:
            print(f"  - {item}")
    if stale:
        print("docs_check: FAIL: documented surface that does not exist "
              "(remove from README.md / docs/operations.md):")
        for item in stale:
            print(f"  - {item}")
    if missing or stale:
        return 1

    print(f"docs_check: OK: {len(commands)} subcommands, {len(env)} env "
          f"vars and {len(keys) + len(prefixes)} config keys and prefixes "
          f"all documented; {len(doc_env)} documented env vars and "
          f"{len(doc_flags)} documented flags all exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
