#!/usr/bin/env python3
"""Self-tests for tools/check_coverage.py (stdlib-only, like the checker).

Pins the floors-file meta-checks (nodupes, nomissing, nostale), the
cross-unit line merge and the floor comparison on synthetic gcov output,
then runs the whole checker once on a real ``--coverage`` build of a
two-subsystem tree when g++ and gcov are on PATH.

Run directly (``python3 tools/test_check_coverage.py``) or via ctest
(``diffc_coverage_selftest``).
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_coverage  # noqa: E402


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _doc(cwd, files):
    """A gcov JSON document: files is [(path, [(line, count), ...])]."""
    return {
        "current_working_directory": cwd,
        "files": [{"file": path,
                   "lines": [{"line_number": n, "count": c} for n, c in lines]}
                  for path, lines in files],
    }


class FloorsFileTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.tmp)

    def floors(self, text):
        path = os.path.join(self.tmp, "floors.json")
        _write(path, text)
        return check_coverage.load_floors(path)

    def test_loads_floors_and_skips_comment_keys(self):
        self.assertEqual(self.floors('{"$comment": "x", "core": 94, "net": 89.5}'),
                         {"core": 94.0, "net": 89.5})

    def test_duplicate_key_is_rejected_not_silently_overwritten(self):
        with self.assertRaisesRegex(check_coverage.CoverageError, "duplicate key 'core'"):
            self.floors('{"core": 94, "net": 89, "core": 10}')

    def test_floor_must_be_a_percentage(self):
        for bad in ('"94"', "101", "-1", "true"):
            with self.assertRaises(check_coverage.CoverageError, msg=bad):
                self.floors('{"core": %s}' % bad)

    def test_missing_and_stale_floors_are_reported(self):
        errors = check_coverage.check_floor_keys({"core": 90.0, "gone": 90.0},
                                                 {"core", "net"})
        self.assertEqual(errors, [
            "nomissing: src/net has no coverage floor",
            "nostale: floor 'gone' names no src/ subdirectory",
        ])

    def test_subsystems_are_the_direct_subdirectories(self):
        src = os.path.join(self.tmp, "src")
        _write(os.path.join(src, "core", "a.cc"), "")
        _write(os.path.join(src, "engine", "procedures", "b.cc"), "")
        _write(os.path.join(src, "top.h"), "")
        self.assertEqual(check_coverage.src_subsystems(src), {"core", "engine"})


class MergeAndCompareTest(unittest.TestCase):
    def test_a_line_counts_once_and_is_covered_if_any_unit_ran_it(self):
        src = os.path.realpath(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, src)
        header = os.path.join(src, "core", "x.h")
        docs = [
            _doc("/", [(header, [(3, 0), (4, 2)]),
                       (os.path.join(src, "core", "x.cc"), [(1, 1), (1, 0)])]),
            _doc(src, [("core/x.h", [(3, 5), (4, 0), (5, 0)]),
                       ("/usr/include/vector", [(10, 0)]),
                       ("top.h", [(1, 0)])]),
        ]
        merged = check_coverage.merge_lines(docs, src)
        self.assertEqual(merged, {
            os.path.join("core", "x.h"): {3: True, 4: True, 5: False},
            os.path.join("core", "x.cc"): {1: True},
        })
        self.assertEqual(check_coverage.summarize(merged), {"core": (3, 4)})

    def test_compare_flags_subsystems_below_floor_or_without_data(self):
        summary = {"core": (95, 100), "net": (80, 100)}
        errors = check_coverage.compare(summary, {"core": 95.0, "net": 81.0, "ds": 50.0})
        self.assertEqual(errors, [
            "floor: src/ds has no coverage data",
            "floor: src/net line coverage 80.0% is below its floor 81%",
        ])


@unittest.skipUnless(shutil.which("g++") and shutil.which("gcov"), "needs g++ and gcov")
class EndToEndTest(unittest.TestCase):
    """One real --coverage build: two subsystems sharing a header."""

    def setUp(self):
        self.root = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.root)
        self.src = os.path.join(self.root, "src")
        _write(os.path.join(self.src, "a", "shared.h"),
               "inline int Twice(int x) {\n  return 2 * x;\n}\n")
        _write(os.path.join(self.src, "a", "a.cc"),
               '#include "a/shared.h"\n'
               "int A(int x) {\n"
               "  if (x > 100) {\n"
               "    return 0;\n"
               "  }\n"
               "  return Twice(x);\n"
               "}\n")
        _write(os.path.join(self.src, "b", "b.cc"),
               '#include "a/shared.h"\n'
               "int B(int x) { return Twice(x) + 1; }\n")
        _write(os.path.join(self.root, "main.cc"),
               "int A(int);\nint B(int);\nint main() { return A(1) + B(2) == 7 ? 0 : 1; }\n")
        objdir = os.path.join(self.root, "build", "src")
        os.makedirs(objdir)
        objects = []
        for rel in ("a/a.cc", "b/b.cc"):
            obj = os.path.join(objdir, rel.replace("/", "_") + ".o")
            subprocess.run(["g++", "--coverage", "-O0", "-I", self.src, "-c",
                            os.path.join(self.src, rel), "-o", obj], check=True)
            objects.append(obj)
        exe = os.path.join(self.root, "main")
        subprocess.run(["g++", "--coverage", os.path.join(self.root, "main.cc"),
                        *objects, "-o", exe], check=True)
        subprocess.run([exe], check=True, cwd=self.root)

    def run_checker(self, floors_text):
        floors = os.path.join(self.root, "floors.json")
        _write(floors, floors_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = check_coverage.main(["--build", os.path.join(self.root, "build"),
                                        "--src", self.src, "--floors", floors])
        return code, out.getvalue(), err.getvalue()

    def test_real_gcov_output_meets_and_misses_floors(self):
        code, out, err = self.run_checker('{"a": 50, "b": 100}')
        self.assertEqual(code, 0, out + err)
        rows = {line.split()[0]: line.split()[1:4] for line in out.splitlines()[1:]}
        # a: a.cc's 4 lines (the early return never ran) plus shared.h's 2,
        # counted once although both units compiled the header.
        self.assertEqual(rows["a"], ["6", "5", "83.3%"])
        self.assertEqual(rows["b"], ["1", "1", "100.0%"])
        self.assertIn("2 .gcda files", out)

        code, _, err = self.run_checker('{"a": 100, "b": 100}')
        self.assertEqual(code, 1)
        self.assertIn("floor: src/a line coverage", err)

        code, _, err = self.run_checker('{"a": 50}')
        self.assertEqual(code, 1)
        self.assertIn("nomissing: src/b has no coverage floor", err)


if __name__ == "__main__":
    unittest.main()
