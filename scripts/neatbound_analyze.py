#!/usr/bin/env python3
"""neatbound-analyze: repo-specific static analysis over src/ and cli/.

The repo's own lint of the C++ tree, for the rules clang-tidy has no
vocabulary for.  Every rule encodes a bug class a previous change fixed
by hand; the first six guard the determinism contract (same seed, same
bytes, serial ≡ parallel), the rest the structural discipline of the
engine:

  nondeterministic-source   std::random_device, rand()/srand(), time()-
                            style entropy.  Every random draw must come
                            from a seeded support/crng.hpp key.
  wall-clock                std::chrono::system_clock /
                            high_resolution_clock anywhere.
  raw-steady-clock          std::chrono::steady_clock anywhere except
                            src/support/telemetry.{hpp,cpp} — the one
                            sanctioned timing point (the reporter's
                            elapsed_seconds routes through an explicit
                            allow).  Clock reads scattered through sim
                            code eventually leak into output or, worse,
                            into control flow.
  time-seeded-rng           any crng::Key or crng::Stream, std engine or
                            seed expression built from a clock's now().
  unordered-iteration       iterating an unordered_map/unordered_set:
                            hash order is libstdc++-version- and
                            pointer-dependent, and eventually leaks into
                            output or an accumulation fold.  Membership
                            lookups (find/count/at/emplace) are fine.
  pointer-keyed-ordering    std::map/std::set keyed on a pointer, or a
                            std::less<T*> comparator: iteration order
                            becomes allocation order, which ASLR
                            reshuffles per process.
  layering            the module dependency DAG, from real #include
                      edges.  Modules are layered (see LAYERS below);
                      an include may only point at a strictly lower
                      layer, or stay inside its own module.  This makes
                      mechanical the bug where scenario/json had to
                      move to support/json so exp/ could parse
                      checkpoints without inverting the layering.
  include-cycle       no include cycles and no self-includes, detected
                      on the file-level include graph.
  hot-alloc           functions annotated NEATBOUND_HOT (support/
                      hot.hpp), plus everything reachable from them
                      through the project call graph, must not allocate:
                      new / malloc / make_unique / allocating container
                      calls / local std container construction.  The
                      engine's per-delivery allocations were removed
                      once; this rule keeps them out.  Amortized or
                      deliberately cold growth paths carry an in-source
                      allow with a written rationale.
  rng-stream          no std::<...>_distribution, no std RNG engines,
                      no <random> include — their sequences are
                      implementation-defined (non-reproducible across
                      standard libraries) and their hidden stream state
                      cannot be read out of order the way quiet-round
                      skipping and replay read counter draws.  Draws go
                      through support/crng.hpp, addressed as (key =
                      (cell, seed), counter = (round, actor, purpose,
                      slot)).
  contract-coverage   every public mutating method defined in
                      protocol/, net/ and exp/ with a non-trivial body
                      (>= 2 statements) contains at least one
                      NEATBOUND_EXPECTS / NEATBOUND_ENSURES /
                      NEATBOUND_INVARIANT, or carries an explicit allow
                      naming why it needs none.
  hot-hygiene         NEATBOUND_HOT functions keep their declared
                      hygiene: accessor-named members are const, and a
                      hot *leaf* (no project calls, no contract macros,
                      no throw, no allocation) is noexcept.  Telemetry
                      macros (srcmodel.TELEMETRY_MACROS) are invisible
                      to both the call graph and leaf-ness: counting a
                      function never changes its classification.
  trace-io            simulation-core modules (sim/, net/, protocol/)
                      must not open files or use C stdio writers.  Every
                      structured per-round stream goes through the one
                      sanctioned serialization point,
                      sim::BoundedTraceWriter (src/sim/trace.cpp, the
                      rule's only exemption), writing to a caller-owned
                      ostream — so output stays bounded, schema'd, and
                      out of the engine's hot path.  Report/sink I/O
                      lives in exp/ and support/, outside this rule.

Every rule reads the one model scripts/neatbound_srcmodel.py builds per
file: a lexer pass that blanks comments and string literals (raw strings
included) while keeping the line layout, so prose cannot trip a rule and
a string containing "//" cannot hide a real finding.

Allowlist syntax (same line as the finding or the line above; a
multi-line // rationale block carries the allow to the code below it):

    // neatbound-analyze: allow(<rule>[, <rule>]) — <why it is safe>

For hot-alloc, an allow on a function's signature line (or the line
above it) marks the whole function as an accepted allocation boundary:
its body is not scanned and hotness does not propagate through it (use
for append-only amortized growth like BlockStore::add).

Self-test: `--self-test` runs every rule over the mini source trees in
tests/lint/fixtures/analyze/*/.  A `// analyze-expect: <rule>[, <rule>]`
comment declares findings on its own line or, standing alone, on the
next code line; the run fails unless every case fires exactly its
declared (file, line, rule) set, every rule fires somewhere, and the
`allowlisted` case silences a real finding of every rule and scans
clean.  CTest entries: lint/analyze_self_test (the self-test) and
lint/all (scripts/lint_all, which runs this over the tree).
"""
from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import neatbound_srcmodel as srcmodel  # noqa: E402

ALLOW_TAG = "neatbound-analyze"
EXPECT = re.compile(r"//\s*analyze-expect:\s*([a-z,\s-]+)")

# The machine-enforced module layering.  An include edge must point at a
# strictly lower layer (or stay inside its own module); modules sharing a
# layer are siblings and may not include each other.  Documented in
# docs/architecture.md — extend here *and there* when adding a module.
LAYERS: dict[str, int] = {
    "support": 0,
    "stats": 1, "protocol": 1, "markov": 1,
    "net": 2, "chains": 2,
    "sim": 3, "bounds": 3,
    "exp": 4, "analysis": 4,
    "scenario": 5,
    "cli": 6,
}

ALL_RULES = [
    "nondeterministic-source", "wall-clock", "raw-steady-clock",
    "time-seeded-rng", "unordered-iteration", "pointer-keyed-ordering",
    "layering", "include-cycle", "hot-alloc", "rng-stream",
    "contract-coverage", "hot-hygiene", "trace-io",
]

DAG_TEXT = ("support → stats/protocol/markov → net/chains → sim/bounds → "
            "exp/analysis → scenario → cli")

# --- rule pattern tables ----------------------------------------------------

ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "new expression"),
    (re.compile(r"(?<![\w:])new\s*\("), "placement/new expression"),
    (re.compile(r"\b(malloc|calloc|realloc|strdup|aligned_alloc)\s*\("),
     "C heap allocation"),
    (re.compile(r"\bmake_(unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\.\s*(push_back|emplace_back|push_front|emplace_front|"
                r"insert|emplace|resize|reserve|append|assign|push)\s*\("),
     "allocating container call"),
    (re.compile(r"\bstd\s*::\s*(vector|deque|list|map|set|multimap|multiset|"
                r"unordered_map|unordered_set|basic_string|function)\s*<"),
     "local std container construction"),
    (re.compile(r"\bstd\s*::\s*(string|ostringstream|stringstream)\b"),
     "std::string/stream construction"),
    (re.compile(r"\bto_string\s*\("), "std::to_string (allocates)"),
]

# Simulation-core modules may not grow private file writers; the single
# exemption is the sanctioned bounded trace serializer.
TRACE_IO_MODULES = {"sim", "net", "protocol"}
TRACE_IO_EXEMPT = {"src/sim/trace.cpp"}
# The one sanctioned steady_clock reader.
STEADY_CLOCK_EXEMPT = {"src/support/telemetry.hpp",
                       "src/support/telemetry.cpp"}

# Line-pattern rules: rule -> (scope, [(pattern, what)], advice).  Each
# lexed line of every in-scope file fires a rule at most once, naming the
# first pattern that matched.
LINE_RULES = {
    "nondeterministic-source": (
        lambda fm: True,
        [(re.compile(r"random_device"), "std::random_device"),
         (re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\("),
          "C rand()/srand()"),
         (re.compile(r"(?<![\w:])std\s*::\s*time\s*\("), "std::time()"),
         (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
          "time(NULL)")],
        "every random draw comes from a seeded support/crng.hpp key"),
    "wall-clock": (
        lambda fm: True,
        [(re.compile(r"system_clock"), "std::chrono::system_clock"),
         (re.compile(r"high_resolution_clock"),
          "std::chrono::high_resolution_clock")],
        "wall-clock reads make output depend on when the run happened"),
    "raw-steady-clock": (
        lambda fm: fm.rel not in STEADY_CLOCK_EXEMPT,
        [(re.compile(r"steady_clock"), "std::chrono::steady_clock")],
        "time phases through support/telemetry.hpp, the one sanctioned "
        "clock reader"),
    "time-seeded-rng": (
        lambda fm: True,
        [(re.compile(
            r"(?:\bKey\b|\bStream\b|\bmt19937(?:_64)?\b|\bminstd_rand0?\b"
            r"|\bdefault_random_engine\b|\branlux\w+\b|[Ss]eed\w*)"
            r"[^;]*?[({=][^;]*\bnow\s*\(\)"),
          "RNG key, engine or seed built from a clock's now()")],
        "seeds come from the run's configuration, never from a clock"),
    "pointer-keyed-ordering": (
        lambda fm: True,
        [(re.compile(r"std\s*::\s*(?:map|set)\s*<\s*(?:const\s+)?"
                     r"[A-Za-z_:][\w:<>]*\s*\*"),
          "std::map/std::set keyed on a pointer"),
         (re.compile(r"std\s*::\s*less\s*<[^>]*\*\s*>"),
          "std::less<T*> comparator")],
        "iteration order becomes allocation order, which ASLR reshuffles; "
        "key on a stable id"),
    "rng-stream": (
        lambda fm: True,
        [(re.compile(r"\b\w+_distribution\s*<"),
          "std::*_distribution has an implementation-defined sequence"),
         (re.compile(r"\b(mt19937(_64)?|minstd_rand0?|ranlux\w+|knuth_b|"
                     r"default_random_engine|mersenne_twister_engine|"
                     r"linear_congruential_engine|subtract_with_carry_engine)"
                     r"\b"),
          "std RNG engine: sequential hidden state blocks addressable "
          "streams"),
         (re.compile(r"#\s*include\s*<random>"),
          "<random> is banned in src/ and cli/")],
        "key draws through support/crng.hpp so every draw stays "
        "addressable as (key, counter)"),
    "trace-io": (
        lambda fm: (fm.module in TRACE_IO_MODULES
                    and fm.rel not in TRACE_IO_EXEMPT),
        [(re.compile(r"\bo?fstream\b"), "file stream construction"),
         (re.compile(r"\bfreopen\s*\(|\bfopen\s*\("), "C stdio open"),
         (re.compile(r"\bFILE\s*\*"), "FILE* handle"),
         (re.compile(r"\bf(printf|write|puts|putc)\s*\("), "C stdio write")],
        "simulation-core modules route structured output through "
        "sim::BoundedTraceWriter (sim/trace.hpp) and let the caller own "
        "the stream"),
}

# unordered-iteration: remember each unordered container's variable name
# so iteration over it is flagged even far from the declaration.
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*([A-Za-z_]\w*)\s*[;={]")
# Range-for target: the last identifier component of the iterated
# expression ("for (auto& x : foo.bar_)" -> "bar_").
RANGE_FOR = re.compile(r"for\s*\([^;)]*?:\s*([A-Za-z_][\w.\->]*)\s*\)")
ITER_CALL = re.compile(
    r"([A-Za-z_]\w*)\s*\.\s*(?:begin|end|cbegin|cend)\s*\(")

ACCESSOR_NAME = re.compile(
    r"^(get_|is_|has_|peek_)|(_of|_height|_count|_size)$"
    r"|^(tip|size|pending|horizon|knows|ancestor)"
    r"|(ancestor)$")


# --- model ------------------------------------------------------------------

class FileModel:
    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.module = module_of(rel)
        self.raw_lines = text.splitlines()
        self.lexed = srcmodel.lex(text)
        self.code_lines = self.lexed.code.splitlines()
        self.includes = srcmodel.extract_includes(text)
        self.functions, self.declarations = srcmodel.extract_functions(
            text, self.lexed)
        self.allows = srcmodel.parse_allow_comments(self.raw_lines,
                                                    ALLOW_TAG)

    def allowed(self, lineno: int, rule: str) -> bool:
        return rule in self.allows.get(lineno, set())


class Model:
    """All scanned files plus cross-file indexes."""

    def __init__(self):
        self.files: dict[str, FileModel] = {}

    def add_file(self, rel: str, text: str) -> None:
        self.files[rel] = FileModel(rel, text)

    def finalize(self) -> None:
        # Declaration index: (class, name) -> [Declaration], for merging
        # access/annotation facts into out-of-line definitions.
        self.decl_index: dict[tuple[str, str], list] = {}
        for fm in self.files.values():
            for d in fm.declarations:
                self.decl_index.setdefault((d.class_name, d.name),
                                           []).append(d)
        # Function name index for the call graph.
        self.name_index: dict[str, list] = {}
        for fm in self.files.values():
            for f in fm.functions:
                self.name_index.setdefault(f.name, []).append((fm, f))

    def merged(self, f) -> tuple[str, bool]:
        """(access, annotated_hot) for a definition, folding in its
        in-class declaration when the definition is out-of-line."""
        access, annotated = f.access, f.annotated_hot
        for d in self.decl_index.get((f.class_name, f.name), []):
            access = access or d.access
            annotated = annotated or d.annotated_hot
        return access, annotated


def module_of(rel: str) -> str | None:
    parts = pathlib.PurePosixPath(rel).parts
    if not parts:
        return None
    if parts[0] == "src" and len(parts) > 1:
        return parts[1]
    if parts[0] == "cli":
        return "cli"
    return None


def source_files(root: pathlib.Path) -> list[pathlib.Path]:
    out = []
    for subdir in ("src", "cli"):
        base = root / subdir
        if base.is_dir():
            out.extend(p for p in sorted(base.rglob("*"))
                       if p.suffix in (".hpp", ".cpp"))
    return out


def build_model(root: pathlib.Path) -> Model:
    model = Model()
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        model.add_file(rel, path.read_text(encoding="utf-8"))
    model.finalize()
    return model


# --- findings ---------------------------------------------------------------

class Finding:
    def __init__(self, rel: str, line: int, rule: str, message: str):
        self.rel, self.line, self.rule, self.message = rel, line, rule, message

    def key(self):
        return (self.rel, self.line, self.rule, self.message)


def raw_findings(model: Model) -> list[Finding]:
    """Every rule's findings, before in-source allows are applied."""
    findings: list[Finding] = []
    findings += rule_line_patterns(model)
    findings += rule_unordered_iteration(model)
    findings += rule_layering(model)
    findings += rule_include_cycle(model)
    findings += rule_hot_alloc(model)
    findings += rule_contract_coverage(model)
    findings += rule_hot_hygiene(model)
    return sorted(findings, key=Finding.key)


def run_rules(model: Model) -> list[Finding]:
    return [f for f in raw_findings(model)
            if not model.files[f.rel].allowed(f.line, f.rule)]


# --- line-pattern rules -----------------------------------------------------

def rule_line_patterns(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module is None:
            continue
        rules = [(rule, patterns, advice)
                 for rule, (scope, patterns, advice) in LINE_RULES.items()
                 if scope(fm)]
        for lineno, line in enumerate(fm.code_lines, 1):
            for rule, patterns, advice in rules:
                what = next((w for p, w in patterns if p.search(line)), None)
                if what is not None:
                    out.append(Finding(fm.rel, lineno, rule,
                                       f"{what}; {advice}"))
    return out


# --- rule: unordered-iteration ----------------------------------------------

def rule_unordered_iteration(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module is None:
            continue
        names = {n for line in fm.code_lines
                 for n in UNORDERED_DECL.findall(line)}
        for lineno, line in enumerate(fm.code_lines, 1):
            ranged = any(re.split(r"\.|->", m.group(1))[-1] in names
                         or "unordered_" in m.group(0)
                         for m in RANGE_FOR.finditer(line))
            called = any(m.group(1) in names
                         for m in ITER_CALL.finditer(line))
            if ranged or called:
                out.append(Finding(
                    fm.rel, lineno, "unordered-iteration",
                    "iterating an unordered container leaks hash order into "
                    "output; iterate a sorted copy or an ordered container"))
    return out


# --- rule: layering ---------------------------------------------------------

def rule_layering(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module is None or fm.module not in LAYERS:
            if fm.module is not None:
                out.append(Finding(
                    fm.rel, 1, "layering",
                    f"module '{fm.module}' is not in the layer map — "
                    f"extend LAYERS in scripts/neatbound_analyze.py and "
                    f"the DAG in docs/architecture.md"))
            continue
        src_layer = LAYERS[fm.module]
        for lineno, target in fm.includes:
            tgt_module = pathlib.PurePosixPath(target).parts[0] \
                if pathlib.PurePosixPath(target).parts else ""
            if tgt_module == fm.module or tgt_module not in LAYERS:
                continue
            tgt_layer = LAYERS[tgt_module]
            if tgt_layer >= src_layer:
                kind = ("layering inversion" if tgt_layer > src_layer
                        else "sibling-layer include")
                out.append(Finding(
                    fm.rel, lineno, "layering",
                    f"{kind}: '{fm.module}' (layer {src_layer}) includes "
                    f"'{tgt_module}' (layer {tgt_layer}); the enforced "
                    f"direction is {DAG_TEXT}"))
    return out


# --- rule: include-cycle ----------------------------------------------------

def build_include_graph(
    includes_by_file: dict[str, list[str]]
) -> dict[str, list[str]]:
    """File-level include digraph, restricted to files in the mapping.
    Include targets are repo-root-relative module paths ("sim/engine.hpp");
    files are repo-relative ("src/sim/engine.hpp")."""
    resolvable = {}
    for rel in includes_by_file:
        p = pathlib.PurePosixPath(rel)
        if p.parts and p.parts[0] == "src":
            resolvable[pathlib.PurePosixPath(*p.parts[1:]).as_posix()] = rel
        resolvable[rel] = rel
    graph: dict[str, list[str]] = {rel: [] for rel in includes_by_file}
    for rel, targets in includes_by_file.items():
        for target in targets:
            resolved = resolvable.get(target)
            if resolved is not None:
                graph[rel].append(resolved)
    return graph


def find_cycles(graph: dict[str, list[str]]) -> list[list[str]]:
    """Elementary cycles via Tarjan SCCs (plus self-loops), each cycle a
    node list in deterministic order starting at its smallest node."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    # Deterministic representative path: start at the
                    # smallest node and follow smallest unvisited
                    # successors within the SCC.
                    members = set(scc)
                    cur = min(scc)
                    path, seen_local = [cur], {cur}
                    while True:
                        nxt = next(
                            (w for w in sorted(graph.get(cur, ()))
                             if w in members and w not in seen_local), None)
                        if nxt is None:
                            break
                        path.append(nxt)
                        seen_local.add(nxt)
                        cur = nxt
                    cycles.append(path)
                elif node in graph.get(node, ()):
                    cycles.append([node])

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sorted(cycles)


def rule_include_cycle(model: Model) -> list[Finding]:
    includes_by_file = {fm.rel: [t for _, t in fm.includes]
                        for fm in model.files.values()}
    graph = build_include_graph(includes_by_file)
    resolvable: dict[str, str] = {}
    for rel in includes_by_file:
        p = pathlib.PurePosixPath(rel)
        if p.parts and p.parts[0] == "src":
            resolvable[pathlib.PurePosixPath(*p.parts[1:]).as_posix()] = rel
        resolvable[rel] = rel
    out = []
    for cycle in find_cycles(graph):
        anchor = cycle[0]
        fm = model.files[anchor]
        nxt = cycle[1] if len(cycle) > 1 else cycle[0]
        lineno = next((ln for ln, t in fm.includes
                       if resolvable.get(t) == nxt), 1)
        label = (" -> ".join(cycle + [cycle[0]])
                 if len(cycle) > 1 else f"{anchor} includes itself")
        out.append(Finding(anchor, lineno, "include-cycle",
                           f"include cycle: {label}"))
    return out


# --- rule: hot-alloc --------------------------------------------------------

def body_line_texts(fm: FileModel, f):
    """(lineno, lexed text) for each line of f's body — starting *after*
    the opening brace, so types in the signature (e.g. a std::vector<>&
    return type) cannot trip the allocation patterns."""
    segment = fm.lexed.code[f.body_start + 1: f.body_end - 1]
    for i, text in enumerate(segment.split("\n")):
        yield f.body_lines[0] + i, text


def _is_boundary(fm: FileModel, func) -> bool:
    return fm.allowed(func.line, "hot-alloc")


def hot_closure(model: Model) -> dict[int, tuple]:
    """id(func) -> (fm, func, chain-string) for every function reachable
    from a NEATBOUND_HOT annotation through the project call graph,
    stopping at allocation-boundary allows."""
    hot: dict[int, tuple] = {}
    work = []
    for fm in model.files.values():
        for f in fm.functions:
            _, annotated = model.merged(f)
            if annotated and not _is_boundary(fm, f):
                hot[id(f)] = (fm, f, f.qualified)
                work.append(f)
    while work:
        f = work.pop()
        chain = hot[id(f)][2]
        for call in sorted(f.calls):
            if call in srcmodel.STD_MEMBER_NAMES:
                continue
            for gm, g in model.name_index.get(call, []):
                if id(g) in hot or _is_boundary(gm, g):
                    continue
                hot[id(g)] = (gm, g, f"{chain} -> {g.qualified}")
                work.append(g)
    return hot


def rule_hot_alloc(model: Model) -> list[Finding]:
    out = []
    for fm, f, chain in hot_closure(model).values():
        for lineno, line in body_line_texts(fm, f):
            for pattern, what in ALLOC_PATTERNS:
                if pattern.search(line):
                    out.append(Finding(
                        fm.rel, lineno, "hot-alloc",
                        f"{what} in '{f.qualified}', reachable from "
                        f"NEATBOUND_HOT via {chain}"))
                    break
    return out


# --- rule: contract-coverage ------------------------------------------------

CONTRACT_MODULES = {"protocol", "net", "exp"}


def rule_contract_coverage(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module not in CONTRACT_MODULES:
            continue
        for f in fm.functions:
            access, _ = model.merged(f)
            if (not f.class_name or access != "public" or f.is_static
                    or f.is_const or f.name == f.class_name
                    or f.name.startswith("~") or f.statements < 2
                    or f.contains_contract):
                continue
            out.append(Finding(
                fm.rel, f.line, "contract-coverage",
                f"public mutating method '{f.qualified}' has no "
                f"NEATBOUND_EXPECTS/ENSURES/INVARIANT; add a contract or "
                f"an explicit allow naming why none is needed"))
    return out


# --- rule: hot-hygiene ------------------------------------------------------

def rule_hot_hygiene(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        for f in fm.functions:
            _, annotated = model.merged(f)
            if not annotated:
                continue
            if (f.class_name and ACCESSOR_NAME.search(f.name)
                    and not f.is_const):
                out.append(Finding(
                    fm.rel, f.line, "hot-hygiene",
                    f"hot accessor '{f.qualified}' is not const-qualified"))
            project_calls = {c for c in f.calls
                             if c not in srcmodel.STD_MEMBER_NAMES
                             and c in model.name_index}
            allocs = any(
                pattern.search(text)
                for _, text in body_line_texts(fm, f)
                for pattern, _ in ALLOC_PATTERNS)
            if (not project_calls and not f.contains_contract
                    and not f.contains_throw and not allocs
                    and not f.is_noexcept):
                out.append(Finding(
                    fm.rel, f.line, "hot-hygiene",
                    f"hot leaf function '{f.qualified}' (no project calls, "
                    f"no contracts, no allocation) should be noexcept"))
    return out


# --- driver -----------------------------------------------------------------

def analyze_tree(root: pathlib.Path) -> int:
    model = build_model(root)
    findings = run_rules(model)
    for f in findings:
        excerpt = ""
        fm = model.files[f.rel]
        if 0 < f.line <= len(fm.raw_lines):
            excerpt = " | " + fm.raw_lines[f.line - 1].strip()
        print(f"FAIL: {f.rel}:{f.line}: [{f.rule}] {f.message}{excerpt}",
              file=sys.stderr)
    if findings:
        print(f"{len(findings)} neatbound-analyze finding(s); add "
              f"'// {ALLOW_TAG}: allow(<rule>)' only with a written "
              f"rationale", file=sys.stderr)
        return 1
    print(f"OK: src/ and cli/ are clean under neatbound-analyze "
          f"({', '.join(ALL_RULES)})")
    return 0


def expected_findings(fm: FileModel) -> set[tuple[str, int, str]]:
    """(rel, line, rule) declared by `// analyze-expect:` comments: a
    trailing comment names its own line, a comment standing alone names
    the next line with code."""
    out = set()
    for lineno, raw in enumerate(fm.raw_lines, 1):
        m = EXPECT.search(raw)
        if not m:
            continue
        target = lineno
        while (target <= len(fm.code_lines)
               and not fm.code_lines[target - 1].strip()):
            target += 1
        out |= {(fm.rel, target, rule.strip())
                for rule in m.group(1).split(",") if rule.strip()}
    return out


def self_test(repo_root: pathlib.Path) -> int:
    cases_dir = repo_root / "tests" / "lint" / "fixtures" / "analyze"
    cases = sorted(p for p in cases_dir.iterdir() if p.is_dir()) \
        if cases_dir.is_dir() else []
    if not cases:
        print(f"FAIL: no fixture cases under {cases_dir}", file=sys.stderr)
        return 1
    failures = 0
    covered: set[str] = set()
    silenced: set[str] = set()
    allowlisted_clean = False
    for case in cases:
        model = build_model(case)
        fired = {(f.rel, f.line, f.rule) for f in run_rules(model)}
        expected = set()
        for fm in model.files.values():
            expected |= expected_findings(fm)
        covered |= {rule for _, _, rule in fired}
        if case.name == "allowlisted":
            silenced = {f.rule for f in raw_findings(model)
                        if model.files[f.rel].allowed(f.line, f.rule)}
            allowlisted_clean = not fired and not expected
        if fired != expected:
            missing = sorted(expected - fired)
            extra = sorted(fired - expected)
            print(f"FAIL: {case.name}: expected-but-missing {missing}, "
                  f"fired-but-unexpected {extra}", file=sys.stderr)
            failures += 1
        else:
            rules = sorted({r for _, _, r in fired}) or ["clean"]
            print(f"ok: {case.name}: {len(fired)} finding(s) {rules}")
    missing_rules = set(ALL_RULES) - covered
    if missing_rules:
        print(f"FAIL: no fixture case fires rule(s): "
              f"{sorted(missing_rules)}", file=sys.stderr)
        failures += 1
    unsilenced = set(ALL_RULES) - silenced
    if unsilenced or not allowlisted_clean:
        print(f"FAIL: the 'allowlisted' case must exist, scan clean and "
              f"silence a finding of every rule; not silenced: "
              f"{sorted(unsilenced)}", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print(f"OK: {len(cases)} cases, every rule ({', '.join(ALL_RULES)}) "
          f"proven to fire and proven silenceable")
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
                        help="run the rules against "
                             "tests/lint/fixtures/analyze/ and require "
                             "each case to fire exactly as declared")
    parser.add_argument("--print-dag", action="store_true",
                        help="print the enforced module layering and exit")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if args.print_dag:
        print(DAG_TEXT)
        for module, layer in sorted(LAYERS.items(), key=lambda kv: kv[1]):
            print(f"  layer {layer}: {module}")
        return 0
    if args.self_test:
        return self_test(root)
    return analyze_tree(root)


if __name__ == "__main__":
    sys.exit(main())
