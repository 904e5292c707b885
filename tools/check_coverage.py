#!/usr/bin/env python3
"""Check per-subsystem line-coverage floors for src/.

Stdlib-only, like check_bench_schema.py. Runs ``gcov --json-format
--stdout`` on every ``.gcda`` under ``<build>/src``, merges the line records
of all translation units (a line counts once, and it is covered if any unit
ran it), sums line coverage per ``src/`` subdirectory and compares each sum
with the committed floors.

The floors file is one JSON object mapping a ``src/`` subdirectory to a
minimum line-coverage percentage; keys starting with ``$`` are comments.
Meta-checks on it:

  nomissing  every ``src/`` subdirectory has a floor;
  nostale    no floor names a directory that does not exist;
  nodupes    no key appears twice (``json.load`` keeps the last one
             silently, so a duplicate would hide a floor).

Usage:
  check_coverage.py [--build build] [--src src]
                    [--floors tools/coverage_floors.json]

The build tree must be compiled and linked with ``--coverage`` and the
test suite run first, so the ``.gcda`` files exist. Exit code 0 when every
floor holds; 1 with one line per failure otherwise.
"""

import argparse
import json
import os
import subprocess
import sys


class CoverageError(Exception):
    pass


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise CoverageError(f"duplicate key '{key}'")
        seen[key] = value
    return seen


def load_floors(path):
    """The floors as {subsystem: percent}; CoverageError on a bad file."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f, object_pairs_hook=_reject_duplicates)
        except (json.JSONDecodeError, CoverageError) as e:
            raise CoverageError(f"{path}: {e}") from e
    if not isinstance(raw, dict):
        raise CoverageError(f"{path}: expected a JSON object")
    floors = {}
    for key, value in raw.items():
        if key.startswith("$"):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value <= 100:
            raise CoverageError(f"{path}: floor for '{key}' must be a number in [0, 100]")
        floors[key] = float(value)
    return floors


def src_subsystems(src_root):
    """The direct subdirectories of `src_root`."""
    return {e for e in os.listdir(src_root) if os.path.isdir(os.path.join(src_root, e))}


def check_floor_keys(floors, subsystems):
    """nomissing and nostale findings, sorted."""
    errors = []
    for name in sorted(subsystems - floors.keys()):
        errors.append(f"nomissing: src/{name} has no coverage floor")
    for name in sorted(floors.keys() - subsystems):
        errors.append(f"nostale: floor '{name}' names no src/ subdirectory")
    return errors


def find_gcda(root):
    found = []
    for dirpath, _, files in os.walk(root):
        found.extend(os.path.join(dirpath, f) for f in files if f.endswith(".gcda"))
    return sorted(found)


def run_gcov(gcda):
    """The JSON document `gcov --json-format --stdout` prints for `gcda`."""
    proc = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise CoverageError(f"gcov failed on {gcda}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def merge_lines(docs, src_root):
    """{src-relative path: {line: covered}} over every doc's src/ files.

    Files outside `src_root` (system and test headers) are skipped. A line
    recorded by several translation units, or several times in one, is
    covered if any record has a nonzero count.
    """
    src_root = os.path.realpath(src_root)
    merged = {}
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for record in doc.get("files", []):
            path = os.path.realpath(os.path.join(cwd, record["file"]))
            rel = os.path.relpath(path, src_root)
            if rel.startswith(os.pardir + os.sep) or os.sep not in rel:
                continue  # Outside src/, or a top-level file of no subsystem.
            lines = merged.setdefault(rel, {})
            for line in record.get("lines", []):
                number = line["line_number"]
                lines[number] = lines.get(number, False) or line["count"] > 0
    return merged


def summarize(merged):
    """{subsystem: (covered, total)} from `merge_lines` output."""
    out = {}
    for rel, lines in merged.items():
        subsystem = rel.split(os.sep, 1)[0]
        covered, total = out.get(subsystem, (0, 0))
        out[subsystem] = (covered + sum(lines.values()), total + len(lines))
    return out


def percent(covered, total):
    return 100.0 * covered / total if total else 0.0


def compare(summary, floors):
    """One finding per subsystem below its floor (or with no data)."""
    errors = []
    for name in sorted(floors):
        covered, total = summary.get(name, (0, 0))
        if total == 0:
            errors.append(f"floor: src/{name} has no coverage data")
            continue
        pct = percent(covered, total)
        if pct < floors[name]:
            errors.append(f"floor: src/{name} line coverage {pct:.1f}% "
                          f"is below its floor {floors[name]:g}%")
    return errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build", default="build", help="coverage build tree")
    parser.add_argument("--src", default="src", help="source tree root")
    parser.add_argument("--floors", default="tools/coverage_floors.json")
    args = parser.parse_args(argv)

    try:
        floors = load_floors(args.floors)
        errors = check_floor_keys(floors, src_subsystems(args.src))
        gcda = find_gcda(os.path.join(args.build, "src"))
        if not gcda:
            raise CoverageError(f"no .gcda files under {args.build}/src "
                                "(build with --coverage and run the tests first)")
        docs = [run_gcov(path) for path in gcda]
    except (CoverageError, OSError) as e:
        print(f"check_coverage: {e}", file=sys.stderr)
        return 1

    summary = summarize(merge_lines(docs, args.src))
    print(f"{'subsystem':<12} {'lines':>7} {'covered':>8} {'pct':>7} {'floor':>6}")
    all_covered = all_total = 0
    for name in sorted(summary):
        covered, total = summary[name]
        all_covered += covered
        all_total += total
        floor = f"{floors[name]:g}" if name in floors else "-"
        print(f"{name:<12} {total:>7} {covered:>8} {percent(covered, total):>6.1f}% {floor:>6}")
    print(f"{'total':<12} {all_total:>7} {all_covered:>8} "
          f"{percent(all_covered, all_total):>6.1f}%   ({len(gcda)} .gcda files)")

    errors += compare(summary, floors)
    for e in errors:
        print(f"check_coverage: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
