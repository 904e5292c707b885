#!/usr/bin/env python3
"""Golden tests for tools/diffc_lint.py (stdlib-only, like the linter).

The fixture trees under tools/lint_fixtures/ carry one deliberate violation
per rule (``bad/``) and the corresponding accepted patterns (``good/``).
These tests pin the exact findings — file, line, rule — so a rule that
silently stops firing (or starts over-firing) fails CI.

Run directly (``python3 tools/test_diffc_lint.py``) or via ctest
(``diffc_lint_selftest``).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(TOOLS_DIR, "diffc_lint.py")
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

# The golden findings of the bad fixture tree: (file, line, rule).
EXPECTED_BAD = [
    ("README.md", 12, "metric-catalog"),
    ("core/bad_discard.cc", 7, "void-discard"),
    ("core/bad_failpoint.cc", 6, "failpoint-name"),
    ("core/dup_failpoint.cc", 5, "failpoint-dup"),
    ("core/uncataloged_failpoint.cc", 5, "failpoint-catalog"),
    ("engine/bad_mutex.h", 15, "mutex-guarded-by"),
    ("engine/bad_mutex.h", 22, "mutex-guarded-by"),
    ("engine/naked_lock.cc", 7, "naked-lock"),
    ("fuzz/fuzz_uncataloged.cc", 1, "fuzzer-catalog"),
    ("net/bad_wire.h", 9, "wire-doc"),
    ("net/bad_wire.h", 13, "wire-doc"),
    ("net/wire.cc", 11, "decoder-discipline"),
    ("net/wire.cc", 16, "decoder-discipline"),
    ("net/wire.cc", 20, "decoder-discipline"),
    ("obs/bad_metric.cc", 5, "metric-name"),
    ("obs/dup_metric_b.cc", 5, "metric-dup"),
    ("obs/undocumented_metric.cc", 5, "metric-catalog"),
    ("prop/dpll.cc", 8, "solver-atomic"),
    ("rewrite/uncataloged_rule.cc", 7, "rewrite-catalog"),
    ("rewrite/uncataloged_rule.cc", 12, "rewrite-catalog"),
    ("util/bad_guard.h", 1, "include-guard"),
]

# Every rule the linter implements must be covered by the bad fixtures.
ALL_RULES = {
    "metric-name", "metric-dup", "metric-catalog", "failpoint-name", "failpoint-dup",
    "failpoint-catalog", "solver-atomic", "include-guard",
    "mutex-guarded-by", "naked-lock", "void-discard", "wire-doc",
    "decoder-discipline", "fuzzer-catalog", "rewrite-catalog",
}


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True)
    return proc


class BadFixtureTest(unittest.TestCase):
    def test_exact_findings_and_exit_code(self):
        proc = run_lint("--root", os.path.join(FIXTURES, "bad"), "--format=json")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        out = json.loads(proc.stdout)
        got = [(f["file"], f["line"], f["rule"]) for f in out["findings"]]
        self.assertEqual(got, EXPECTED_BAD)
        self.assertEqual(out["suppressed"], 0)

    def test_every_rule_is_exercised(self):
        self.assertEqual({rule for _, _, rule in EXPECTED_BAD}, ALL_RULES)

    def test_each_violation_exits_nonzero_alone(self):
        # Each fixture file must independently fail the lint: copy it alone
        # into a scratch tree (duplicate rules need both their files; the
        # catalog rule needs the DESIGN.md it checks against).
        companions = {
            "obs/dup_metric_b.cc": ["obs/dup_metric_a.cc"],
            "core/uncataloged_failpoint.cc": ["DESIGN.md"],
            # The doc rule is silent without the DESIGN.md it checks against.
            "net/bad_wire.h": ["DESIGN.md"],
            # The catalog rule is likewise silent without DESIGN.md.
            "fuzz/fuzz_uncataloged.cc": ["DESIGN.md"],
            # Both rewrite-catalog halves need their lookup targets.
            "rewrite/uncataloged_rule.cc": ["DESIGN.md", "tests/test_rewrite.cc"],
            # The metric-table rule is silent without README.md.
            "obs/undocumented_metric.cc": ["README.md"],
        }
        files = sorted({f for f, _, _ in EXPECTED_BAD})
        for rel in files:
            with tempfile.TemporaryDirectory() as scratch:
                for member in [rel] + companions.get(rel, []):
                    src = os.path.join(FIXTURES, "bad", member)
                    dst = os.path.join(scratch, member)
                    if os.path.dirname(dst):
                        os.makedirs(os.path.dirname(dst), exist_ok=True)
                    with open(src) as fin, open(dst, "w") as fout:
                        fout.write(fin.read())
                proc = run_lint("--root", scratch)
                self.assertEqual(proc.returncode, 1,
                                 f"{rel} alone should fail the lint\n{proc.stdout}")

    def test_text_format_lists_findings(self):
        proc = run_lint("--root", os.path.join(FIXTURES, "bad"))
        self.assertEqual(proc.returncode, 1)
        for f, line, rule in EXPECTED_BAD:
            self.assertIn(f"{f}:{line}: {rule}:", proc.stdout)


class GoodFixtureTest(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        proc = run_lint("--root", os.path.join(FIXTURES, "good"), "--format=json")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(json.loads(proc.stdout)["findings"], [])


class BaselineTest(unittest.TestCase):
    def test_baseline_suppresses_and_write_regenerates(self):
        with tempfile.TemporaryDirectory() as scratch:
            baseline = os.path.join(scratch, "baseline.json")
            proc = run_lint("--root", os.path.join(FIXTURES, "bad"),
                            "--baseline", baseline, "--write-baseline")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(baseline) as f:
                entries = json.load(f)["findings"]
            self.assertEqual(len(entries), len(EXPECTED_BAD))

            # With the baseline, the same tree is green and fully suppressed.
            proc = run_lint("--root", os.path.join(FIXTURES, "bad"),
                            "--baseline", baseline, "--format=json")
            self.assertEqual(proc.returncode, 0, proc.stdout)
            out = json.loads(proc.stdout)
            self.assertEqual(out["findings"], [])
            self.assertEqual(out["suppressed"], len(EXPECTED_BAD))

    def test_missing_baseline_file_is_not_an_error(self):
        proc = run_lint("--root", os.path.join(FIXTURES, "good"),
                        "--baseline", "/nonexistent/baseline.json")
        self.assertEqual(proc.returncode, 0)


class CheckFixturesTest(unittest.TestCase):
    def test_real_fixture_tree_passes(self):
        proc = run_lint("--check-fixtures", FIXTURES)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_bad_fixture_is_drift(self):
        # Rebuild the fixture tree without the solver-atomic fixture: the
        # audit must flag the now-dead rule and exit nonzero.
        with tempfile.TemporaryDirectory() as scratch:
            for dirpath, _, filenames in os.walk(FIXTURES):
                for name in filenames:
                    src = os.path.join(dirpath, name)
                    rel = os.path.relpath(src, FIXTURES)
                    if rel == os.path.join("bad", "prop", "dpll.cc"):
                        continue
                    dst = os.path.join(scratch, rel)
                    os.makedirs(os.path.dirname(dst), exist_ok=True)
                    with open(src) as fin, open(dst, "w") as fout:
                        fout.write(fin.read())
            proc = run_lint("--check-fixtures", scratch)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("solver-atomic", proc.stdout)
            self.assertIn("dead rule", proc.stdout)

    def test_dirty_good_tree_is_drift(self):
        with tempfile.TemporaryDirectory() as scratch:
            for sub in ("bad", "good"):
                for dirpath, _, filenames in os.walk(os.path.join(FIXTURES, sub)):
                    for name in filenames:
                        src = os.path.join(dirpath, name)
                        rel = os.path.relpath(src, FIXTURES)
                        dst = os.path.join(scratch, rel)
                        os.makedirs(os.path.dirname(dst), exist_ok=True)
                        with open(src) as fin, open(dst, "w") as fout:
                            fout.write(fin.read())
            with open(os.path.join(scratch, "good", "core", "oops.cc"), "w") as f:
                f.write("int G();\nvoid F() {\n  (void)G();\n}\n")
            proc = run_lint("--check-fixtures", scratch)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("good fixture tree must be clean", proc.stdout)


class UsageTest(unittest.TestCase):
    def test_bad_root_exits_two(self):
        proc = run_lint("--root", "/nonexistent/tree")
        self.assertEqual(proc.returncode, 2)

    def test_missing_root_without_check_fixtures_exits_two(self):
        proc = run_lint()
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
