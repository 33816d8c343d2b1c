"""Shared C++ source model for the repo's Python lint/analysis tools.

This module is the front end `neatbound_analyze.py` builds on.  It
deliberately implements a *lexer*, not a parser: the rules need
comment/string-safe pattern matching, include edges, and function
extents with a few declaration-level facts (class, access,
const/noexcept, annotations) — all of which a tracked brace/paren scan
recovers reliably for this codebase's style, without a compiler
dependency.

Pieces:

  lex(text)          -> Lexed(code, code_with_strings): the source with
                        comments (and, for `.code`, string/char literal
                        contents) blanked to spaces, newlines preserved,
                        so line/column arithmetic still works.  Handles
                        line comments, multi-line /* */ blocks, escaped
                        quotes, digit separators (1'000'000), and raw
                        string literals R"delim(...)delim" — the
                        constructs a line-oriented comment stripper
                        mishandles: a raw string could swallow code, and
                        `//` inside a string ate the rest of the line.
  extract_includes   -> ordered [(lineno, target)] of quoted includes.
  extract_functions  -> ([Function], [Declaration]): every function
                        definition with its extent, enclosing class,
                        qualifiers, annotations, body-derived call names
                        and statement count; plus in-class member
                        declarations (no body) for access/annotation
                        lookup of out-of-line definitions.
  parse_allow_comments -> {lineno: rules} from in-source allowlist
                        comments (`<tag>: allow(rule-a, rule-b) — why`).
                        An allow on line L covers findings on L and L+1
                        ("same line or the line above").
"""
from __future__ import annotations

import bisect
import dataclasses
import re

# ---------------------------------------------------------------------------
# Lexing


@dataclasses.dataclass
class Lexed:
    """Source text with non-code regions blanked (lengths preserved)."""

    code: str               # comments AND string/char literals blanked
    code_with_strings: str  # only comments blanked (for #include targets)


_RAW_OPEN = re.compile(r'(?:u8|[uUL])?R"([^ ()\\\t\v\f\n]{0,16})\(')


def lex(text: str) -> Lexed:
    """Blank comments and literals out of `text`, preserving layout."""
    n = len(text)
    code = list(text)
    code_ws = list(text)
    i = 0
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            for j in range(i, end):
                code[j] = code_ws[j] = " "
            i = end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            for j in range(i, end):
                if text[j] != "\n":
                    code[j] = code_ws[j] = " "
            i = end
        elif ch == "'" and i > 0 and text[i - 1].isalnum() and \
                i + 1 < n and text[i + 1].isalnum():
            i += 1  # digit separator (1'000'000), not a char literal
        elif ch in "\"'uULR":
            end = _raw_string_at(text, i)
            if end is None:
                if ch == '"':
                    end = _skip_quoted(text, i, '"')
                elif ch == "'":
                    end = _skip_quoted(text, i, "'")
                else:  # a u/U/L/R that is just an identifier character
                    i += 1
                    continue
            for j in range(i, end):
                if text[j] != "\n":
                    code[j] = " "
            i = end
        else:
            i += 1
    return Lexed("".join(code), "".join(code_ws))


def _raw_string_at(text: str, i: int) -> int | None:
    """If a raw string literal starts at `i`, return its end offset."""
    if i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
        return None  # part of a longer identifier, e.g. FooR"..."
    m = _RAW_OPEN.match(text, i)
    if m is None:
        return None
    closer = ")" + m.group(1) + '"'
    end = text.find(closer, m.end())
    return len(text) if end == -1 else end + len(closer)


def _skip_quoted(text: str, i: int, quote: str) -> int:
    """End offset of a regular string/char literal starting at `i`."""
    j = i + 1
    while j < len(text):
        if text[j] == "\\":
            j += 2
        elif text[j] == quote or text[j] == "\n":  # unterminated: stop at EOL
            return j + 1
        else:
            j += 1
    return j


# ---------------------------------------------------------------------------
# Includes

_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def extract_includes(text: str) -> list[tuple[int, str]]:
    """(lineno, target) for every quoted include, comment-safe."""
    lexed = lex(text)
    out = []
    for lineno, line in enumerate(lexed.code_with_strings.splitlines(), 1):
        m = _INCLUDE.match(line)
        if m:
            out.append((lineno, m.group(1)))
    return out


# ---------------------------------------------------------------------------
# Allow comments


def parse_allow_comments(
    raw_lines: list[str], tag: str
) -> dict[int, set[str]]:
    """{covered_lineno: rules} for `// <tag>: allow(a, b) — why` comments.

    A comment on line L covers findings reported on L and on L+1 (the
    "same line or the line above" contract).  When the allow opens a multi-line // rationale block, the
    coverage extends through the block to the first code line after it,
    so the written justification can be longer than one line."""
    pattern = re.compile(re.escape(tag) + r":\s*allow\(([a-z0-9,\s-]+)\)")
    covered: dict[int, set[str]] = {}
    for lineno, line in enumerate(raw_lines, 1):
        m = pattern.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        covered.setdefault(lineno, set()).update(rules)
        j = lineno + 1
        while (j <= len(raw_lines)
               and raw_lines[j - 1].lstrip().startswith("//")):
            covered.setdefault(j, set()).update(rules)
            j += 1
        covered.setdefault(j, set()).update(rules)
    return covered


# ---------------------------------------------------------------------------
# Function extraction

_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "alignas", "decltype", "static_assert", "new",
    "delete", "throw", "case", "default", "noexcept", "requires",
}

# Member-call names that are overwhelmingly std-container/std-utility
# operations; call edges through them never resolve to project functions
# (a project accessor that shares one of these names — e.g. a `size()`
# wrapper — is by the same token too trivial to carry interesting
# reachability).
STD_MEMBER_NAMES = {
    "size", "empty", "clear", "begin", "end", "cbegin", "cend", "rbegin",
    "rend", "push_back", "emplace_back", "pop_back", "push_front", "pop",
    "push", "top", "front", "back", "reserve", "resize", "insert",
    "emplace", "erase", "find", "count", "at", "data", "swap", "assign",
    "append", "substr", "c_str", "str", "length", "get", "value",
    "value_or", "has_value", "reset", "release", "lock", "unlock", "load",
    "store", "min", "max", "clamp", "move", "forward", "make_pair",
    "to_string", "abs", "llround", "lround", "round", "floor", "ceil",
    "sqrt", "log", "log2", "log1p", "exp", "expm1", "pow", "isnan",
    "isinf", "isfinite", "bit_ceil", "has_single_bit", "countl_zero",
    "bit_width", "apply", "visit", "tie",
}

# The telemetry macro surface (support/telemetry.hpp).  ALL-UPPERCASE
# names are already invisible to the call graph (_IDENT_CALL filters
# them), but analyzers need the set to (a) treat the macros like the
# invariant/contract macros on side-effect-sensitive checks and (b) make
# clear that instrumentation does NOT change a function's hot-path
# classification.
TELEMETRY_MACROS = {
    "NEATBOUND_COUNT", "NEATBOUND_COUNT_ADD", "NEATBOUND_PHASE_SCOPE",
}

_IDENT_CALL = re.compile(r"([A-Za-z_]\w*)\s*\(")
_TRAILING_NAME = re.compile(
    r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*$")
_CLASS_DECL = re.compile(
    r"\b(class|struct)\s+((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
    r"\s*(?:final\s*)?(?::[^;{]*)?$")
_NAMESPACE_DECL = re.compile(r"\bnamespace(\s+[A-Za-z_][\w:\s]*)?$")
_ACCESS = re.compile(r"\b(public|protected|private)\s*:$")
_INIT_LIST = re.compile(r"\)\s*(?:noexcept\s*)?:\s*(?!:)")


@dataclasses.dataclass
class Function:
    """One function definition (body present)."""

    name: str                 # simple name ("drain_due")
    class_name: str           # enclosing or explicit class, "" for free fns
    qualified: str            # "Class::name" or "name"
    line: int                 # 1-based line of the signature's first token
    body_start: int           # offset of '{' in the lexed text
    body_end: int             # offset past the matching '}'
    is_const: bool
    is_noexcept: bool
    is_static: bool
    access: str               # "public" | "protected" | "private" | ""
    annotated_hot: bool       # NEATBOUND_HOT on the definition
    calls: set[str] = dataclasses.field(default_factory=set)
    statements: int = 0       # ';' count in the body
    contains_contract: bool = False  # NEATBOUND_{EXPECTS,ENSURES,INVARIANT}
    contains_telemetry: bool = False  # any TELEMETRY_MACROS use in the body
    contains_throw: bool = False
    body_lines: tuple[int, int] = (0, 0)  # 1-based inclusive body extent


@dataclasses.dataclass
class Declaration:
    """An in-class member declaration without a body."""

    name: str
    class_name: str
    line: int
    is_const: bool
    is_noexcept: bool
    is_static: bool
    access: str
    annotated_hot: bool


@dataclasses.dataclass
class _Signature:
    name: str
    explicit_class: str  # "X" for an out-of-line "X::name" definition
    qualifiers: str      # text between the ')' and the '{' / ';'


def _signature_of(segment: str) -> _Signature | None:
    """If `segment` (code since the last ; { }) ends with a function
    signature `name (args) [quals]`, describe it; else None."""
    # Locate the last balanced top-level (...) group.
    depth = 0
    close = -1
    open_ = -1
    for idx in range(len(segment) - 1, -1, -1):
        c = segment[idx]
        if c == ")":
            if depth == 0 and close == -1:
                close = idx
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0 and close != -1:
                open_ = idx
                break
            if depth < 0:
                return None
    if open_ == -1:
        return None
    before, quals = segment[:open_], segment[close + 1:]
    m = _TRAILING_NAME.search(before)
    if m is None:
        return None
    explicit_class, name = m.group(1) or "", m.group(2)
    if name.lstrip("~") in _KEYWORDS or explicit_class in _KEYWORDS:
        return None
    # The qualifier text may only contain known qualifier tokens, an
    # exception spec, or a trailing-return type; anything else means this
    # was not a function signature (e.g. a variable initializer).
    q = re.sub(r"noexcept\s*\([^)]*\)", "noexcept", quals)
    q = re.sub(r"->\s*[\w:&<>,\s*]+", " ", q)
    for tok in q.replace("&&", " ").replace("&", " ").split():
        if tok not in ("const", "noexcept", "override", "final", "try"):
            return None
    return _Signature(name=name, explicit_class=explicit_class,
                      qualifiers=quals)


def _signature_with_initlist(segment: str) -> _Signature | None:
    """Accepts a constructor initializer list after the ')' as well.

    The init-list split must run *first*: on a full ctor segment the last
    balanced paren group is the last member initializer ("rng_(seed)"),
    so plain _signature_of would mis-name the constructor after it."""
    m = _INIT_LIST.search(segment)
    if m is not None:
        close = segment.rfind(")", 0, m.end())
        tail = segment[m.end():]
        if not re.search(r"[;{}=]", re.sub(r"=\s*[\w.]+", "", tail)):
            sig = _signature_of(segment[: close + 1])
            if sig is not None:
                return sig
    return _signature_of(segment)


def _line_index(code: str):
    starts = [0]
    for idx, ch in enumerate(code):
        if ch == "\n":
            starts.append(idx + 1)

    def line_of(offset: int) -> int:
        return bisect.bisect_right(starts, offset)

    return line_of


def _skip_parens(code: str, i: int) -> int:
    """Offset just past the ')' matching the '(' at `i` (or, defensively,
    at an unbalanced structural character)."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_functions(
    text: str, lexed: Lexed | None = None
) -> tuple[list[Function], list[Declaration]]:
    """All function definitions and in-class member declarations."""
    lexed = lexed or lex(text)
    code = lexed.code
    line_of = _line_index(code)

    functions: list[Function] = []
    declarations: list[Declaration] = []
    # Context stack entries are mutable lists:
    #   ["namespace", name, ""] | ["class", name, current_access]
    #   | ["function", <fields…>] | ["other", "", ""]
    stack: list[list] = []
    seg_start = 0
    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(":
            i = _skip_parens(code, i)  # keeps for(;;), lambdas, args whole
            continue
        if c == "{":
            segment = code[seg_start:i]
            stack.append(_classify(segment, seg_start, i, stack, line_of))
            seg_start = i + 1
        elif c == "}":
            if stack:
                ctx = stack.pop()
                if ctx[0] == "function":
                    functions.append(_finish(ctx, code, i + 1, line_of))
            seg_start = i + 1
        elif c == ";":
            decl = _declaration(code[seg_start:i], stack, line_of, seg_start)
            if decl is not None:
                declarations.append(decl)
            seg_start = i + 1
        elif c == ":" and stack and stack[-1][0] == "class":
            m = _ACCESS.search(code[max(seg_start, i - 12): i + 1])
            if m:
                stack[-1][2] = m.group(1)
                seg_start = i + 1
        i += 1
    return functions, declarations


def _enclosing_class(stack: list[list]) -> tuple[str, str]:
    for ctx in reversed(stack):
        if ctx[0] == "class":
            return ctx[1], ctx[2]
        if ctx[0] == "function":
            break
    return "", ""


def _classify(segment, seg_start, brace_pos, stack, line_of):
    stripped = segment.strip()
    if _NAMESPACE_DECL.search(stripped):
        return ["namespace", "", ""]
    if stripped.startswith("enum") or " enum " in stripped:
        return ["other", "", ""]
    m = _CLASS_DECL.search(stripped)
    if m:
        name = re.split(r"\s*::\s*", m.group(2))[-1]
        default_access = "private" if m.group(1) == "class" else "public"
        return ["class", name, default_access]
    in_function = any(ctx[0] == "function" for ctx in stack)
    sig = None if in_function else _signature_with_initlist(stripped)
    if sig is not None:
        class_name, access = _enclosing_class(stack)
        if sig.explicit_class:
            class_name, access = sig.explicit_class, ""
        first_token = seg_start + (len(segment) - len(segment.lstrip()))
        return [
            "function", sig.name, access, class_name,
            re.search(r"\bconst\b", sig.qualifiers) is not None,
            re.search(r"\bnoexcept\b", sig.qualifiers) is not None,
            re.search(r"\bstatic\b", segment) is not None,
            "NEATBOUND_HOT" in segment,
            line_of(first_token), brace_pos,
        ]
    return ["other", "", ""]


def _finish(ctx, code, end, line_of) -> Function:
    (_, name, access, class_name, is_const, is_noexcept, is_static,
     annotated, line, body_start) = ctx
    body = code[body_start + 1: end - 1]
    calls = {
        m.group(1)
        for m in _IDENT_CALL.finditer(body)
        if m.group(1) not in _KEYWORDS and not m.group(1).isupper()
    }
    return Function(
        name=name,
        class_name=class_name,
        qualified=f"{class_name}::{name}" if class_name else name,
        line=line,
        body_start=body_start,
        body_end=end,
        is_const=is_const,
        is_noexcept=is_noexcept,
        is_static=is_static,
        access=access,
        annotated_hot=annotated,
        calls=calls,
        statements=body.count(";"),
        contains_contract=bool(
            re.search(r"NEATBOUND_(EXPECTS|ENSURES|INVARIANT)\b", body)),
        contains_telemetry=bool(
            re.search(r"NEATBOUND_(COUNT|COUNT_ADD|PHASE_SCOPE)\b", body)),
        contains_throw=bool(re.search(r"\bthrow\b", body)),
        body_lines=(line_of(body_start), line_of(end - 1)),
    )


def _declaration(segment, stack, line_of, seg_start):
    if not stack or stack[-1][0] != "class":
        return None
    stripped = re.sub(r"=\s*(default|delete|0)\s*$", "", segment.strip())
    if "=" in stripped:
        return None  # field with initializer / default argument: not needed
    sig = _signature_of(stripped.rstrip())
    if sig is None:
        return None
    return Declaration(
        name=sig.name,
        class_name=stack[-1][1],
        line=line_of(seg_start + (len(segment) - len(segment.lstrip()))),
        is_const=re.search(r"\bconst\b", sig.qualifiers) is not None,
        is_noexcept=re.search(r"\bnoexcept\b", sig.qualifiers) is not None,
        is_static=re.search(r"\bstatic\b", segment) is not None,
        access=stack[-1][2],
        annotated_hot="NEATBOUND_HOT" in segment,
    )
