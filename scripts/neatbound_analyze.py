#!/usr/bin/env python3
"""neatbound-analyze: repo-specific static analysis over src/ and cli/.

The determinism lint (check_determinism.py) bans *token-level* hazards.
This tool enforces the *structural* discipline the upcoming engine
rewrites (million-miner loop, Philox RNG, PoS protocol family) must not
regress — each rule encodes a bug class a previous PR fixed by hand:

  layering            the module dependency DAG, from real #include
                      edges.  Modules are layered (see LAYERS below);
                      an include may only point at a strictly lower
                      layer, or stay inside its own module.  This is
                      the PR 5 bug class (scenario/json had to move to
                      support/json so exp/ could parse checkpoints
                      without inverting the layering) made mechanical.
  include-cycle       no include cycles and no self-includes, detected
                      on the file-level include graph.
  hot-alloc           functions annotated NEATBOUND_HOT (support/
                      hot.hpp), plus everything reachable from them
                      through the project call graph, must not allocate:
                      new / malloc / make_unique / allocating container
                      calls / local std container construction.  The
                      PR 4 overhaul removed per-delivery allocations;
                      this rule keeps them out.  Amortized or
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

Allowlist syntax (same line as the finding or the line above):

    // neatbound-analyze: allow(<rule>[, <rule>]) — <why it is safe>

For hot-alloc, an allow on a function's signature line (or the line
above it) marks the whole function as an accepted allocation boundary:
its body is not scanned and hotness does not propagate through it (use
for append-only amortized growth like BlockStore::add).

Front ends (--frontend):
  libclang  AST-precise, driven by the exported compile database
            (compile_commands.json); preferred when the clang Python
            bindings and a libclang shared library are installed.
  text      the built-in lexer front end (scripts/neatbound_srcmodel.py):
            comment/string-safe, include-exact, with a conservative
            name-based call graph.  No dependencies beyond Python.
  auto      libclang when fully functional, otherwise text (with a
            notice).  The degraded mode is not include-graph-only: every
            rule runs on the text front end; libclang adds precision
            (real overload resolution, exact extents), not coverage.

Self-test: `--self-test` runs every rule over the mini source trees in
tests/lint/fixtures/analyze/*/ — each case declares the rules its files
must trigger with `// analyze-expect: <rule>` lines, the `allowlisted`
case proves the allow syntax silences every rule, and the run fails
unless the fired set matches exactly and every rule is covered.  CTest
entries: lint/analyze_self_test, lint/analyze_src.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import neatbound_srcmodel as srcmodel  # noqa: E402

ALLOW_TAG = "neatbound-analyze"
EXPECT = re.compile(r"//\s*analyze-expect:\s*([a-z-]+)")

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

RNG_PATTERNS = [
    (re.compile(r"\b\w+_distribution\s*<"),
     "std::*_distribution has an implementation-defined sequence"),
    (re.compile(r"\b(mt19937(_64)?|minstd_rand0?|ranlux\w+|knuth_b|"
                r"default_random_engine|mersenne_twister_engine|"
                r"linear_congruential_engine|subtract_with_carry_engine)\b"),
     "std RNG engine: sequential hidden state blocks addressable streams"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> is banned in src/ and cli/"),
]

# Simulation-core modules may not grow private file writers; the single
# exemption is the sanctioned bounded trace serializer.
TRACE_IO_MODULES = {"sim", "net", "protocol"}
TRACE_IO_EXEMPT = {"src/sim/trace.cpp"}
TRACE_IO_PATTERNS = [
    (re.compile(r"\bo?fstream\b"), "file stream construction"),
    (re.compile(r"\bfreopen\s*\(|\bfopen\s*\("), "C stdio open"),
    (re.compile(r"\bFILE\s*\*"), "FILE* handle"),
    (re.compile(r"\bf(printf|write|puts|putc)\s*\("), "C stdio write"),
]

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

    def __init__(self, root: pathlib.Path, frontend: str):
        self.root = root
        self.frontend = frontend
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


def build_model_text(root: pathlib.Path) -> Model:
    model = Model(root, "text")
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        model.add_file(rel, path.read_text(encoding="utf-8"))
    model.finalize()
    return model


# --- libclang front end -----------------------------------------------------

def _locate_libclang() -> bool:
    """Point clang.cindex at a libclang shared object, if findable."""
    import glob

    from clang import cindex
    if cindex.Config.loaded:
        return True
    candidates = []
    for pattern in ("/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/llvm-*/lib/libclang-*.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang.so*"):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for lib in candidates:
        if "libclang-cpp" in lib:
            continue  # the C++ API library, not the C API libclang needs
        try:
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return True
        except Exception:  # noqa: BLE001 — probe the next candidate
            cindex.Config.loaded = False
            cindex.Config.library_file = None
    try:
        cindex.Index.create()  # maybe a plain `libclang.so` is on the path
        return True
    except Exception:  # noqa: BLE001
        return False


def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return False
    try:
        return _locate_libclang()
    except Exception:  # noqa: BLE001
        return False


def build_model_libclang(root: pathlib.Path,
                         compile_db: pathlib.Path | None) -> Model:
    """AST front end: same Model shapes, cursor-accurate facts."""
    from clang import cindex

    args_for: dict[str, list[str]] = {}
    if compile_db and compile_db.is_file():
        for entry in json.loads(compile_db.read_text()):
            file = pathlib.Path(entry["directory"], entry["file"]).resolve()
            raw = entry.get("arguments") or entry.get("command", "").split()
            args = [a for a in raw[1:] if a.startswith(("-I", "-D", "-std",
                                                        "-isystem"))]
            args_for[str(file)] = args
    default_args = ["-std=c++20", f"-I{root / 'src'}", f"-I{root}"]

    model = Model(root, "libclang")
    index = cindex.Index.create()
    seen_functions: set[tuple[str, int, str]] = set()
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        model.add_file(rel, path.read_text(encoding="utf-8"))
    for rel, fm in list(model.files.items()):
        if not rel.endswith(".cpp"):
            continue
        path = root / rel
        args = args_for.get(str(path.resolve()), default_args)
        tu = index.parse(str(path), args=args,
                         options=cindex.TranslationUnit
                         .PARSE_DETAILED_PROCESSING_RECORD)
        _harvest_tu(model, root, tu, seen_functions)
    model.finalize()
    return model


def _harvest_tu(model, root, tu, seen) -> None:
    from clang import cindex

    K = cindex.CursorKind

    def rel_of(location) -> str | None:
        if location.file is None:
            return None
        try:
            p = pathlib.Path(str(location.file)).resolve()
            rel = p.relative_to(root.resolve()).as_posix()
        except ValueError:
            return None
        return rel if rel in model.files else None

    def walk(cursor):
        for child in cursor.get_children():
            rel = rel_of(child.location)
            if rel is None and child.kind not in (K.NAMESPACE,):
                continue
            if child.kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                              K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                if child.is_definition() and rel is not None:
                    key = (rel, child.extent.start.line, child.spelling)
                    if key not in seen:
                        seen.add(key)
                        _replace_function(model.files[rel], child)
                continue
            if child.kind in (K.NAMESPACE, K.CLASS_DECL, K.STRUCT_DECL,
                              K.CLASS_TEMPLATE, K.UNEXPOSED_DECL):
                walk(child)

    walk(tu.cursor)


def _replace_function(fm: FileModel, cursor) -> None:
    """Overwrite the lexer's record for this definition with AST facts."""
    from clang import cindex

    K = cindex.CursorKind
    start, end = cursor.extent.start.line, cursor.extent.end.line
    calls: set[str] = set()
    allocates = False

    def visit(c):
        nonlocal allocates
        if c.kind == K.CALL_EXPR and c.spelling:
            calls.add(c.spelling)
        if c.kind == K.CXX_NEW_EXPR:
            allocates = True
        for g in c.get_children():
            visit(g)

    visit(cursor)
    tokens = {t.spelling for t in cursor.get_tokens()}
    parent = cursor.semantic_parent
    class_name = parent.spelling if parent is not None and parent.kind in (
        K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE) else ""
    access = {"public": "public", "protected": "protected",
              "private": "private"}.get(
        str(cursor.access_specifier).split(".")[-1].lower(), "")
    spec = cursor.exception_specification_kind
    noexcept = str(spec).split(".")[-1] in ("BASIC_NOEXCEPT",
                                            "COMPUTED_NOEXCEPT")
    record = srcmodel.Function(
        name=cursor.spelling,
        class_name=class_name,
        qualified=(f"{class_name}::{cursor.spelling}"
                   if class_name else cursor.spelling),
        line=start,
        body_start=0, body_end=0,
        is_const=bool(cursor.is_const_method()),
        is_noexcept=noexcept,
        is_static=bool(cursor.is_static_method()),
        access=access,
        annotated_hot=("NEATBOUND_HOT" in tokens or any(
            c.kind == K.ANNOTATE_ATTR and c.spelling == "neatbound_hot"
            for c in cursor.get_children())),
        calls=calls,
        statements=sum(t == ";" for t in
                       (tok.spelling for tok in cursor.get_tokens())),
        contains_contract=bool(tokens & {"NEATBOUND_EXPECTS",
                                         "NEATBOUND_ENSURES",
                                         "NEATBOUND_INVARIANT"}),
        contains_throw="throw" in tokens,
        body_lines=(start, end),
    )
    if allocates:
        record.calls.add("operator new")
    fm.functions = [f for f in fm.functions
                    if not (f.name == record.name and f.line == record.line)]
    fm.functions.append(record)


# --- findings ---------------------------------------------------------------

class Finding:
    def __init__(self, rel: str, line: int, rule: str, message: str):
        self.rel, self.line, self.rule, self.message = rel, line, rule, message

    def key(self):
        return (self.rel, self.line, self.rule, self.message)


def run_rules(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    findings += rule_layering(model)
    findings += rule_include_cycle(model)
    findings += rule_rng(model)
    findings += rule_hot_alloc(model)
    findings += rule_contract_coverage(model)
    findings += rule_hot_hygiene(model)
    findings += rule_trace_io(model)
    kept = []
    for f in sorted(findings, key=Finding.key):
        fm = model.files.get(f.rel)
        if fm is not None and fm.allowed(f.line, f.rule):
            continue
        kept.append(f)
    return kept


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


# --- rule: rng-stream -------------------------------------------------------

def rule_rng(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module is None:
            continue
        for lineno, line in enumerate(fm.code_lines, 1):
            hit = None
            for pattern, why in RNG_PATTERNS:
                if pattern.search(line):
                    hit = (f"{why}; key draws through support/crng.hpp "
                           f"so every draw stays addressable as "
                           f"(key, counter)")
                    break
            if hit is not None:
                out.append(Finding(fm.rel, lineno, "rng-stream", hit))
    return out


# --- rule: hot-alloc --------------------------------------------------------

def body_line_texts(fm: FileModel, f):
    """(lineno, lexed text) for each line of f's body — starting *after*
    the opening brace, so types in the signature (e.g. a std::vector<>&
    return type) cannot trip the allocation patterns."""
    if f.body_start > 0 and f.body_end > f.body_start:
        segment = fm.lexed.code[f.body_start + 1: f.body_end - 1]
        for i, text in enumerate(segment.split("\n")):
            yield f.body_lines[0] + i, text
        return
    start, end = f.body_lines  # libclang extent: full-definition lines
    for lineno in range(start, min(end, len(fm.code_lines)) + 1):
        yield lineno, fm.code_lines[lineno - 1]


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
        if f.body_lines[0] == 0:
            continue
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
                for pattern, _ in ALLOC_PATTERNS
            ) if f.body_lines[0] else False
            if (not project_calls and not f.contains_contract
                    and not f.contains_throw and not allocs
                    and not f.is_noexcept):
                out.append(Finding(
                    fm.rel, f.line, "hot-hygiene",
                    f"hot leaf function '{f.qualified}' (no project calls, "
                    f"no contracts, no allocation) should be noexcept"))
    return out


# --- rule: trace-io ---------------------------------------------------------

def rule_trace_io(model: Model) -> list[Finding]:
    out = []
    for fm in model.files.values():
        if fm.module not in TRACE_IO_MODULES or fm.rel in TRACE_IO_EXEMPT:
            continue
        for lineno, line in enumerate(fm.code_lines, 1):
            for pattern, what in TRACE_IO_PATTERNS:
                if pattern.search(line):
                    out.append(Finding(
                        fm.rel, lineno, "trace-io",
                        f"{what} in simulation-core module '{fm.module}': "
                        f"route structured output through "
                        f"sim::BoundedTraceWriter (sim/trace.hpp) and let "
                        f"the caller own the stream"))
                    break
    return out


# --- driver -----------------------------------------------------------------

def probe_compile_db(root: pathlib.Path,
                     explicit: str | None) -> pathlib.Path | None:
    if explicit:
        p = pathlib.Path(explicit)
        return p if p.is_file() else None
    for candidate in sorted(root.glob("build*/compile_commands.json")):
        return candidate
    return None


def build_model(root: pathlib.Path, frontend: str,
                compile_db: pathlib.Path | None,
                quiet: bool = False) -> Model:
    if frontend == "libclang" or (frontend == "auto"
                                  and libclang_available()):
        if frontend == "libclang" and not libclang_available():
            print("FAIL: --frontend=libclang requested but the clang "
                  "Python bindings / libclang shared library are not "
                  "available", file=sys.stderr)
            raise SystemExit(2)
        try:
            return build_model_libclang(root, compile_db)
        except Exception as error:  # noqa: BLE001
            if frontend == "libclang":
                raise
            if not quiet:
                print(f"note: libclang front end failed ({error}); "
                      f"falling back to the text front end",
                      file=sys.stderr)
    if frontend == "auto" and not quiet and not libclang_available():
        print("note: libclang not available — running the built-in text "
              "front end (all rules active; libclang adds precision only)",
              file=sys.stderr)
    return build_model_text(root)


def analyze_tree(root: pathlib.Path, frontend: str,
                 compile_db: pathlib.Path | None) -> int:
    model = build_model(root, frontend, compile_db)
    findings = run_rules(model)
    for f in findings:
        excerpt = ""
        fm = model.files.get(f.rel)
        if fm and 0 < f.line <= len(fm.raw_lines):
            excerpt = " | " + fm.raw_lines[f.line - 1].strip()
        print(f"FAIL: {f.rel}:{f.line}: [{f.rule}] {f.message}{excerpt}",
              file=sys.stderr)
    if findings:
        print(f"{len(findings)} neatbound-analyze finding(s); add "
              f"'// {ALLOW_TAG}: allow(<rule>)' only with a written "
              f"rationale", file=sys.stderr)
        return 1
    print(f"OK: src/ and cli/ are clean under neatbound-analyze "
          f"({', '.join(ALL_RULES)}; front end: {model.frontend})")
    return 0


def self_test(repo_root: pathlib.Path, frontend: str) -> int:
    cases_dir = repo_root / "tests" / "lint" / "fixtures" / "analyze"
    cases = sorted(p for p in cases_dir.iterdir() if p.is_dir()) \
        if cases_dir.is_dir() else []
    if not cases:
        print(f"FAIL: no fixture cases under {cases_dir}", file=sys.stderr)
        return 1
    failures = 0
    covered: set[str] = set()
    allow_proven = False
    for case in cases:
        model = build_model(case, frontend, None, quiet=True)
        fired = {(f.rel, f.rule) for f in run_rules(model)}
        expected = set()
        for fm in model.files.values():
            for line in fm.raw_lines:
                m = EXPECT.search(line)
                if m:
                    expected.add((fm.rel, m.group(1)))
        covered |= {rule for _, rule in fired}
        if case.name == "allowlisted":
            allow_proven = not fired and not expected
        if fired != expected:
            missing = sorted(expected - fired)
            extra = sorted(fired - expected)
            print(f"FAIL: {case.name}: expected-but-missing {missing}, "
                  f"fired-but-unexpected {extra}", file=sys.stderr)
            failures += 1
        else:
            rules = sorted({r for _, r in fired}) or ["clean"]
            print(f"ok: {case.name}: {rules}")
    missing_rules = set(ALL_RULES) - covered
    if missing_rules:
        print(f"FAIL: no fixture case fires rule(s): "
              f"{sorted(missing_rules)}", file=sys.stderr)
        failures += 1
    if not allow_proven:
        print("FAIL: the 'allowlisted' case must exist and scan clean "
              "(it proves the allow syntax for every rule)",
              file=sys.stderr)
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
    parser.add_argument(
        "--compile-db", default=None,
        help="compile_commands.json (default: probe build*/); used by the "
             "libclang front end for per-TU flags")
    parser.add_argument(
        "--frontend", choices=("auto", "libclang", "text"), default="auto",
        help="AST front end selection (default: auto)")
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
        return self_test(root, args.frontend)
    return analyze_tree(root, args.frontend,
                        probe_compile_db(root, args.compile_db))


if __name__ == "__main__":
    sys.exit(main())
