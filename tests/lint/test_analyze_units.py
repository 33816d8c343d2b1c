#!/usr/bin/env python3
"""Unit tests for the analyzer's pure-Python core: the include-graph
builder / cycle detector and the shared lexer + allowlist parser.  No
libclang, no compile database — these must pass on a bare Python 3.

Run directly (CTest entry `lint/analyze_units`):
    python3 tests/lint/test_analyze_units.py
"""
import pathlib
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import neatbound_analyze as analyze  # noqa: E402
import neatbound_srcmodel as srcmodel  # noqa: E402


class IncludeGraphTests(unittest.TestCase):
    def test_resolves_src_relative_targets(self):
        graph = analyze.build_include_graph({
            "src/sim/a.hpp": ["sim/b.hpp", "support/crng.hpp"],
            "src/sim/b.hpp": [],
        })
        self.assertEqual(graph["src/sim/a.hpp"], ["src/sim/b.hpp"])
        self.assertEqual(graph["src/sim/b.hpp"], [])

    def test_unresolvable_targets_are_dropped(self):
        graph = analyze.build_include_graph(
            {"src/net/x.hpp": ["nonexistent/y.hpp"]})
        self.assertEqual(graph["src/net/x.hpp"], [])

    def test_cli_files_resolve_by_full_path(self):
        graph = analyze.build_include_graph({
            "cli/main.cpp": ["cli/args.hpp"],
            "cli/args.hpp": [],
        })
        self.assertEqual(graph["cli/main.cpp"], ["cli/args.hpp"])

    def test_acyclic_chain_has_no_cycles(self):
        self.assertEqual(analyze.find_cycles(
            {"a": ["b"], "b": ["c"], "c": []}), [])

    def test_diamond_is_not_a_cycle(self):
        graph = {"top": ["left", "right"], "left": ["bottom"],
                 "right": ["bottom"], "bottom": []}
        self.assertEqual(analyze.find_cycles(graph), [])

    def test_simple_cycle_starts_at_smallest_node(self):
        cycles = analyze.find_cycles({"b": ["c"], "c": ["a"], "a": ["b"]})
        self.assertEqual(cycles, [["a", "b", "c"]])

    def test_self_include_is_a_cycle(self):
        self.assertEqual(analyze.find_cycles({"a": ["a"], "b": []}),
                         [["a"]])

    def test_two_disjoint_cycles_both_reported(self):
        graph = {"a": ["b"], "b": ["a"], "x": ["y"], "y": ["x"], "z": []}
        self.assertEqual(analyze.find_cycles(graph),
                         [["a", "b"], ["x", "y"]])

    def test_cycle_with_acyclic_tail(self):
        graph = {"entry": ["a"], "a": ["b"], "b": ["a"]}
        self.assertEqual(analyze.find_cycles(graph), [["a", "b"]])

    def test_edges_to_unknown_nodes_are_ignored(self):
        # find_cycles only follows edges whose target is a graph node.
        self.assertEqual(analyze.find_cycles({"a": ["ghost"]}), [])


class AllowlistParsingTests(unittest.TestCase):
    TAG = "neatbound-analyze"

    def parse(self, lines):
        return srcmodel.parse_allow_comments(lines, self.TAG)

    def test_same_line_and_next_line_covered(self):
        covered = self.parse([
            "int x;  // neatbound-analyze: allow(hot-alloc) — why",
            "int y;",
            "int z;",
        ])
        self.assertEqual(covered.get(1), {"hot-alloc"})
        self.assertEqual(covered.get(2), {"hot-alloc"})
        self.assertNotIn(3, covered)

    def test_multiple_rules_with_spaces(self):
        covered = self.parse(
            ["// neatbound-analyze: allow(layering,  include-cycle) — x"])
        self.assertEqual(covered.get(1), {"layering", "include-cycle"})

    def test_multiline_comment_block_extends_coverage(self):
        covered = self.parse([
            "// neatbound-analyze: allow(contract-coverage) — a rationale",
            "// that keeps going for another line",
            "void frob() {",
        ])
        self.assertEqual(covered.get(3), {"contract-coverage"})

    def test_wrong_tag_is_ignored(self):
        covered = self.parse(
            ["// determinism-lint: allow(unordered-iteration)"])
        self.assertEqual(covered, {})

    def test_empty_rule_list_covers_nothing(self):
        covered = self.parse(["// neatbound-analyze: allow() — nothing"])
        self.assertEqual(covered, {})

    def test_coverage_does_not_leak_past_first_code_line(self):
        covered = self.parse([
            "// neatbound-analyze: allow(rng-stream) — one draw",
            "first_code_line();",
            "second_code_line();",
        ])
        self.assertIn(2, covered)
        self.assertNotIn(3, covered)


class LexerTests(unittest.TestCase):
    def test_raw_string_is_blanked(self):
        lexed = srcmodel.lex('auto s = R"(std::random_device)";\nint x;\n')
        self.assertNotIn("random_device", lexed.code)
        self.assertIn("int x;", lexed.code)

    def test_raw_string_with_delimiter(self):
        lexed = srcmodel.lex('auto s = R"doc(payload )" still)doc"; f();\n')
        self.assertNotIn("payload", lexed.code)
        self.assertIn("f();", lexed.code)

    def test_multiline_block_comment_blanked_but_layout_kept(self):
        text = "a();\n/* rand()\n   srand() */\nb();\n"
        lexed = srcmodel.lex(text)
        self.assertNotIn("rand", lexed.code)
        self.assertEqual(lexed.code.count("\n"), text.count("\n"))

    def test_string_with_comment_marker_does_not_hide_code(self):
        lexed = srcmodel.lex('auto u = "http://x"; hidden();\n')
        self.assertIn("hidden();", lexed.code)
        self.assertNotIn("http", lexed.code)

    def test_digit_separators_are_not_char_literals(self):
        lexed = srcmodel.lex("int n = 1'000'000; trailing();\n")
        self.assertIn("trailing();", lexed.code)

    def test_includes_survive_in_code_with_strings(self):
        text = '#include "sim/engine.hpp"\n'
        self.assertEqual(srcmodel.extract_includes(text),
                         [(1, "sim/engine.hpp")])


class TelemetryMacroTests(unittest.TestCase):
    """The telemetry macros are observation, not calls: they must stay
    invisible to the call graph (ALL-UPPERCASE filter) while still being
    recorded on the containing function via contains_telemetry."""

    SOURCE = (
        "namespace neatbound::sim {\n"
        "void counted() {\n"
        "  NEATBOUND_COUNT(kDeliveries);\n"
        "  helper();\n"
        "}\n"
        "void plain() { helper(); }\n"
        "}\n"
    )

    def _functions(self):
        functions, _declarations = srcmodel.extract_functions(self.SOURCE)
        return {f.name: f for f in functions}

    def test_macro_is_not_a_call(self):
        functions = self._functions()
        self.assertIn("helper", functions["counted"].calls)
        for macro in srcmodel.TELEMETRY_MACROS:
            self.assertNotIn(macro, functions["counted"].calls)

    def test_contains_telemetry_flag(self):
        functions = self._functions()
        self.assertTrue(functions["counted"].contains_telemetry)
        self.assertFalse(functions["plain"].contains_telemetry)


if __name__ == "__main__":
    unittest.main(verbosity=2)
