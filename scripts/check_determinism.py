#!/usr/bin/env python3
"""Repo-specific determinism lint for the neatbound sources.

The simulator's headline contract — same seed, same bytes, serial ≡
parallel — is sampled dynamically by the parity tests but enforced
nowhere.  This pass statically bans the constructions that historically
break that contract in simulation codebases:

  nondeterministic-source   std::random_device, rand()/srand(), time()-
                            style entropy.  Every random draw must come
                            from a seeded support/crng.hpp key.
  wall-clock                std::chrono::system_clock /
                            high_resolution_clock.  steady_clock is
                            allowed only via the rule below.
  raw-steady-clock          std::chrono::steady_clock anywhere except
                            src/support/telemetry.{hpp,cpp} — the one
                            sanctioned timing point (phase scopes, the
                            reporter's elapsed_seconds routes through an
                            explicit allow).  Clock reads scattered
                            through sim code eventually leak into output
                            or, worse, into control flow.
  time-seeded-rng           any crng::Key or crng::Stream, std engine or
                            seed expression built from a clock's now() —
                            allowed clocks included.
  unordered-iteration       iterating an unordered_map/unordered_set.
                            Hash-order is libstdc++-version- and
                            pointer-dependent; anything iterated in hash
                            order eventually leaks into output or an
                            accumulation fold.  Membership lookups
                            (find/count/at/emplace) are fine.
  pointer-keyed-ordering    std::map/std::set keyed on a pointer, or a
                            std::less<T*> comparator: iteration order
                            becomes allocation order, which ASLR
                            reshuffles per process.

Justified exceptions carry an in-source allowlist comment on the same
line or the line above:

    // determinism-lint: allow(unordered-iteration) — <why it is safe>

Scanned: src/ and cli/ (*.hpp, *.cpp).  Exit 1 with file:line findings
on any un-allowlisted hit.

Self-test: `--self-test` runs the rules over tests/lint/fixtures/*.cpp;
each fixture declares the rules it must trigger with `// lint-expect:
<rule>` lines (a fixture with none must scan clean), and the run fails
unless every fixture fires exactly its declared rule set.  This is the
CTest entry `lint/determinism_self_test`.

Comment/string handling is delegated to the shared C++ lexer in
neatbound_srcmodel.py: comments (including multi-line /* */) AND string
literals (including raw strings) are blanked before the rules run, so
prose cannot trip a rule and a string containing "//" cannot hide a
real finding on the same line.
"""
import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import neatbound_srcmodel as srcmodel  # noqa: E402

ALLOW = re.compile(r"determinism-lint:\s*allow\(([a-z,\s-]+)\)")
EXPECT = re.compile(r"//\s*lint-expect:\s*([a-z-]+)")

# Declarations of unordered containers: remember the variable name so
# later iteration over it can be flagged even far from the declaration.
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*([A-Za-z_]\w*)\s*[;={]")
# Range-for target: the last identifier component of the iterated
# expression ("for (auto& x : foo.bar_)" -> "bar_").
RANGE_FOR = re.compile(r"for\s*\([^;)]*?:\s*([A-Za-z_][\w.\->]*)\s*\)")
ITER_CALL = re.compile(r"([A-Za-z_]\w*)\s*\.\s*(?:begin|end|cbegin|cend)\s*\(")

SIMPLE_RULES = {
    "nondeterministic-source": [
        re.compile(r"random_device"),
        re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\("),
        re.compile(r"(?<![\w:])std\s*::\s*time\s*\("),
        re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
    ],
    "wall-clock": [
        re.compile(r"system_clock"),
        re.compile(r"high_resolution_clock"),
    ],
    "time-seeded-rng": [
        re.compile(
            r"(?:\bKey\b|\bStream\b|\bmt19937(?:_64)?\b|\bminstd_rand0?\b"
            r"|\bdefault_random_engine\b|\branlux\w+\b|[Ss]eed\w*)"
            r"[^;]*?[({=][^;]*\bnow\s*\(\)"),
    ],
    "pointer-keyed-ordering": [
        re.compile(r"std\s*::\s*(?:map|set)\s*<\s*(?:const\s+)?"
                   r"[A-Za-z_:][\w:<>]*\s*\*"),
        re.compile(r"std\s*::\s*less\s*<[^>]*\*\s*>"),
    ],
}

# Rules whose verdict depends on *where* the code lives: the pattern is
# banned tree-wide except in the named root-relative files.  Fixtures
# (scanned with relpath=None) are never exempt, so self-test can prove
# the rule fires.
PATH_RULES = {
    "raw-steady-clock": {
        "patterns": [re.compile(r"steady_clock")],
        "exempt": ("src/support/telemetry.hpp", "src/support/telemetry.cpp"),
    },
}

ALL_RULES = sorted(
    list(SIMPLE_RULES) + list(PATH_RULES) + ["unordered-iteration"])


def allowed_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules allowlisted for 1-based line `lineno`: a comment on the line
    itself or the line directly above."""
    rules: set[str] = set()
    for candidate in (lineno - 1, lineno):  # 0-based: previous, current
        if 0 <= candidate - 1 < len(raw_lines):
            match = ALLOW.search(raw_lines[candidate - 1])
            if match:
                rules.update(r.strip() for r in match.group(1).split(","))
    return rules


def scan_file(path: pathlib.Path,
              relpath: str | None = None) -> list[tuple[int, str, str]]:
    """Returns (line, rule, excerpt) findings for one file.  `relpath` is
    the root-relative POSIX path, consulted by PATH_RULES exemptions;
    None (fixtures) means no exemption applies."""
    text = path.read_text(encoding="utf-8")
    raw = text.splitlines()
    # Shared lexer: blanks comments AND string literals (raw strings,
    # multi-line /* */ blocks) while preserving the line layout.
    clean = srcmodel.lex(text).code.splitlines()
    findings: list[tuple[int, str, str]] = []

    unordered_names = set()
    for line in clean:
        unordered_names.update(UNORDERED_DECL.findall(line))

    for lineno, line in enumerate(clean, start=1):
        hits: set[str] = set()
        for rule, patterns in SIMPLE_RULES.items():
            if any(p.search(line) for p in patterns):
                hits.add(rule)
        for rule, spec in PATH_RULES.items():
            if relpath in spec["exempt"]:
                continue
            if any(p.search(line) for p in spec["patterns"]):
                hits.add(rule)
        for match in RANGE_FOR.finditer(line):
            target = re.split(r"\.|->", match.group(1))[-1]
            if target in unordered_names or "unordered_" in match.group(0):
                hits.add("unordered-iteration")
        for match in ITER_CALL.finditer(line):
            if match.group(1) in unordered_names:
                hits.add("unordered-iteration")
        if not hits:
            continue
        allowed = allowed_rules(raw, lineno)
        for rule in sorted(hits - allowed):
            findings.append((lineno, rule, raw[lineno - 1].strip()))
    return findings


def lint_tree(root: pathlib.Path) -> int:
    failures = 0
    for subdir in ("src", "cli"):
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            for lineno, rule, excerpt in scan_file(
                    path, path.relative_to(root).as_posix()):
                print(f"FAIL: {path.relative_to(root)}:{lineno}: [{rule}] "
                      f"{excerpt}", file=sys.stderr)
                failures += 1
    if failures:
        print(f"{failures} determinism-lint finding(s); add "
              f"'// determinism-lint: allow(<rule>)' only with a written "
              f"justification", file=sys.stderr)
        return 1
    print("OK: src/ and cli/ are clean under the determinism lint "
          f"({', '.join(ALL_RULES)})")
    return 0


def self_test(root: pathlib.Path) -> int:
    fixtures = sorted((root / "tests" / "lint" / "fixtures").glob("*.cpp"))
    if not fixtures:
        print("FAIL: no fixtures found under tests/lint/fixtures",
              file=sys.stderr)
        return 1
    failures = 0
    covered: set[str] = set()
    for fixture in fixtures:
        raw = fixture.read_text(encoding="utf-8").splitlines()
        expected = {m.group(1) for line in raw for m in [EXPECT.search(line)]
                    if m}
        fired = {rule for _, rule, _ in scan_file(fixture)}
        covered |= fired
        if fired != expected:
            print(f"FAIL: {fixture.name}: expected rules "
                  f"{sorted(expected) or '∅'}, fired {sorted(fired) or '∅'}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"ok: {fixture.name}: {sorted(fired) or ['clean']}")
    missing = set(ALL_RULES) - covered
    if missing:
        print(f"FAIL: no fixture exercises rule(s): {sorted(missing)}",
              file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print(f"OK: {len(fixtures)} fixtures, every rule "
          f"({', '.join(ALL_RULES)}) proven to fire")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root (default: the repo containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rules against tests/lint/fixtures "
                             "and require each to fire as declared")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    return self_test(root) if args.self_test else lint_tree(root)


if __name__ == "__main__":
    sys.exit(main())
