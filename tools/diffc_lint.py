#!/usr/bin/env python3
"""diffc project-invariant linter: repo-specific rules the compiler can't check.

Stdlib-only (like check_bench_schema.py). Walks a source tree and enforces
the conventions that keep the concurrent subsystems and the observability
layer honest:

  metric-name       Registered metric names follow the documented scheme
                    (DESIGN.md s8/s9): ``diffc_<subsystem>_<name>`` with
                    ``_total`` for counters, ``_seconds`` for histograms,
                    neither suffix for gauges; literal names only.
  metric-dup        Each (metric name, label set) is registered by exactly
                    one call site; a second site would silently share (or
                    fork) a time series.
  metric-catalog    Every well-formed metric name a ``GetCounter`` /
                    ``GetGauge`` / ``GetHistogram`` call registers has a
                    row in the README metric table (a line starting
                    ``| `diffc_...` ``), and every such row names a
                    registered metric, so the table an operator reads is
                    exactly what ``/metrics`` exports. The table is
                    ``<root>/README.md`` or ``<root>/../README.md``; the
                    rule is silent when neither exists (fixture subsets).
  failpoint-name    Fail-point names follow ``<area>/<site>`` (lowercase,
                    dash-separated words).
  failpoint-dup     Each fail-point name has exactly one site, so arming a
                    name fires a unique, known code path.
  failpoint-catalog Every well-formed fail-point site name appears
                    (backtick-quoted) in the DESIGN.md fail-point catalog
                    (s11 "Failure handling"), so the set of armable names
                    an operator can read about is complete. The catalog is
                    ``<root>/DESIGN.md`` or ``<root>/../DESIGN.md``; the
                    rule is silent when neither exists (fixture subsets).
  solver-atomic     No atomics and no metric mutations inside solver inner
                    loops (sat search / DPLL / transversal): counters accumulate
                    thread-locally and flush at procedure exit (DESIGN.md
                    s8 "flush at boundary").
  include-guard     Header guards are ``DIFFC_<RELATIVE_PATH>_H_``.
  mutex-guarded-by  No raw ``std::mutex`` member (use ``diffc::Mutex``),
                    and every ``Mutex`` member has at least one
                    ``GUARDED_BY`` sibling — an unannotated mutex protects
                    nothing the analysis can prove.
  naked-lock        No ``std::lock_guard`` / ``std::unique_lock`` /
                    ``std::scoped_lock``; critical sections use the
                    annotated ``MutexLock`` (util/mutex.h).
  void-discard      A ``(void)`` discard must carry a comment (same or
                    previous line) saying why the value cannot matter;
                    this is the audited escape hatch for ``[[nodiscard]]``
                    ``Status``.
  wire-doc          Every wire opcode (``WireRequest`` / ``WireResponse``
                    enumerator in a ``*wire*.h`` header) and every field
                    of a ``*Msg`` wire struct is documented in the
                    DESIGN.md s11 wire table: the backticked hex literal
                    (for opcodes) or backticked field name must appear
                    there, so the on-the-wire contract an operator reads
                    about never drifts from the structs that define it.
                    Same DESIGN.md lookup as failpoint-catalog; silent
                    when neither exists (fixture subsets).
  decoder-discipline  Decode-path files (``DECODER_PATH_FILES``) read
                    untrusted bytes only through the ``ByteCursor`` API
                    (net/cursor.h): no ``memcpy``/``memmove``, no
                    ``reinterpret_cast``, no pointer arithmetic or
                    indexing off ``.data()``, no ``*p++`` walks. The
                    cursor is the single audited home of raw reads, and
                    the fuzz targets (fuzz/) hammer it under ASan.
  fuzzer-catalog    Every fuzz target (``fuzz/fuzz_*.cc`` next to the
                    linted tree, same two-level lookup as the DESIGN.md
                    catalog) is documented (backtick-quoted) in the
                    DESIGN.md s13 fuzzing table, mirroring
                    failpoint-catalog: the set of harnesses a developer
                    can run must be complete in the docs. Silent when no
                    fuzz directory or no DESIGN.md exists.
  rewrite-catalog   Every rewrite rule name — the literal of a
                    ``name() const override { return "name"; }`` under
                    ``rewrite/`` — is documented (backtick-quoted) in the
                    DESIGN.md s14 rewrite-rule catalog AND exercised
                    (quoted) in ``tests/test_rewrite.cc`` — an L(C)
                    rewrite without a soundness argument in the docs or a
                    seeded property test is a correctness hazard. Same
                    two-level DESIGN.md lookup as failpoint-catalog; the
                    test half is silent when no test_rewrite.cc exists
                    (fixture subsets).

Findings print as ``path:line: rule: message`` (or ``--format=json``).
A committed baseline (``--baseline``) grandfathers known findings by
(rule, file, message) — line numbers may drift; ``--write-baseline``
regenerates it. ``--check-fixtures DIR`` audits the golden fixture trees
instead of linting: every implemented rule must fire somewhere under
``DIR/bad`` (a rule with no bad fixture is a dead rule) and ``DIR/good``
must be clean. Exit code 0 when no non-baselined findings (or no fixture
drift), 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import os
import re
import sys

# Files whose inner loops are the engine's hot paths: the flush-at-boundary
# rule applies here. Paths are relative to --root.
SOLVER_LOOP_FILES = {
    "prop/dpll.cc",
    "lattice/hitting_set.cc",
    "engine/sat_kernel.cc",
}

# Files that decode untrusted bytes: every raw read must go through the
# ByteCursor API (net/cursor.h). The cursor header itself is the audited
# exception. Paths are relative to --root.
DECODER_PATH_FILES = {
    "net/wire.h",
    "net/wire.cc",
    "net/http.h",
    "net/http.cc",
}

# Every rule this linter implements, in docstring order. --check-fixtures
# verifies each has a bad fixture that fires it.
ALL_RULES = (
    "metric-name", "metric-dup", "metric-catalog", "failpoint-name", "failpoint-dup",
    "failpoint-catalog", "solver-atomic", "include-guard",
    "mutex-guarded-by", "naked-lock", "void-discard", "wire-doc",
    "decoder-discipline", "fuzzer-catalog", "rewrite-catalog",
)

# The annotated wrapper itself legitimately holds a raw std::mutex member
# and uses std:: locking internally. Paths relative to --root.
MUTEX_WRAPPER_FILES = {
    "util/mutex.h",
}

# The registry implementation declares/defines GetCounter & friends; those
# are not registration call sites. Paths relative to --root.
METRIC_REGISTRY_FILES = {
    "obs/metrics.h",
    "obs/metrics.cc",
}

SOURCE_EXTENSIONS = (".h", ".cc")

METRIC_WORD = r"[a-z0-9]+(?:_[a-z0-9]+)*"
COUNTER_NAME_RE = re.compile(rf"^diffc_{METRIC_WORD}_total$")
HISTOGRAM_NAME_RE = re.compile(rf"^diffc_{METRIC_WORD}_seconds$")
GAUGE_NAME_RE = re.compile(rf"^diffc_{METRIC_WORD}$")
FAILPOINT_NAME_RE = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*(?:/[a-z0-9]+(?:-[a-z0-9]+)*)+$")

GET_METRIC_RE = re.compile(r"\b(GetCounter|GetGauge|GetHistogram)\s*\(")
FAILPOINT_RE = re.compile(r"\bDIFFC_FAILPOINT\s*\(\s*\"([^\"]*)\"\s*\)")
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
NAKED_LOCK_RE = re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock)\b")
VOID_DISCARD_RE = re.compile(r"^\s*\(void\)\s*\S")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"(?:(?:\[\[[^\]]*\]\]|CAPABILITY\s*\([^)]*\)|SCOPED_CAPABILITY|"
    r"alignas\s*\([^)]*\))\s+)*"
    r"(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{"
)
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(std::mutex|(?:diffc::)?Mutex)\s+(\w+)\s*;", re.MULTILINE
)
LOOP_HEADER_RE = re.compile(r"\b(for|while|do)\b")
SOLVER_ATOMIC_RE = re.compile(
    r"std::atomic\b|\.fetch_add\s*\(|\.fetch_sub\s*\(|"
    r"->Inc\s*\(|->Add\s*\(|->Sub\s*\(|->Set\s*\(|->Observe\s*\("
)
WIRE_OPCODE_ENUM_RE = re.compile(
    r"\benum\s+class\s+(WireRequest|WireResponse)\s*(?::[^{]*)?\{([^}]*)\}"
)
WIRE_OPCODE_RE = re.compile(r"\b(k\w+)\s*=\s*(0x[0-9A-Fa-f]+)")
WIRE_MSG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Msg)\s*\{")
REWRITE_NAME_RE = re.compile(
    r"\bname\s*\(\s*\)\s*const\s+override\s*\{\s*return\s+\"([^\"]+)\"\s*;\s*\}"
)
WIRE_FIELD_RE = re.compile(r"^\s*[A-Za-z_][\w:<>,\s]*[\s>]\s*(\w+)\s*(?:=[^;]*)?;")
README_METRIC_ROW_RE = re.compile(r"^\|\s*`(diffc_\w+)`\s*\|", re.MULTILINE)


class Finding:
    def __init__(self, file, line, rule, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        # Line numbers drift with unrelated edits; a baseline entry matches
        # on the stable triple.
        return (self.rule, self.file, self.message)

    def as_dict(self):
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self):
        return f"{self.file}:{self.line}: {self.rule}: {self.message}"


def strip_comments(text):
    """Returns (no_comments, code_only), both newline-preserving.

    ``no_comments`` drops // and /* */ comments but keeps string literal
    contents (metric / fail-point names live there). ``code_only``
    additionally blanks string and char literal contents, so structural
    scans never trip on keywords inside strings.
    """
    no_comments = []
    code_only = []
    i = 0
    n = len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                no_comments.append(c)
                code_only.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                no_comments.append(c)
                code_only.append(c)
                i += 1
                continue
            no_comments.append(c)
            code_only.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                no_comments.append(c)
                code_only.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                no_comments.append(c)
                code_only.append(c)
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                no_comments.append(c)
                no_comments.append(nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
                no_comments.append(c)
                code_only.append(c)
                i += 1
                continue
            no_comments.append(c)
            if c == "\n":
                code_only.append(c)
            i += 1
    return "".join(no_comments), "".join(code_only)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def balanced_args(text, open_paren):
    """The argument text of the call whose '(' is at ``open_paren``."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i]
    return text[open_paren + 1 :]


# ----------------------------------------------------------------- metrics


def metric_kind_checks(kind, name):
    if kind == "GetCounter":
        return COUNTER_NAME_RE.match(name), "diffc_<subsystem>_<name>_total"
    if kind == "GetHistogram":
        return HISTOGRAM_NAME_RE.match(name), "diffc_<subsystem>_<name>_seconds"
    ok = GAUGE_NAME_RE.match(name) and not name.endswith(("_total", "_seconds"))
    return ok, "diffc_<subsystem>_<name> (no _total/_seconds suffix)"


def labels_key(args):
    """A stable key for the label-set argument of a registration call."""
    m = re.search(r"\{\{.*\}\}", args, re.DOTALL)
    if m:
        return re.sub(r"\s+", "", m.group(0))
    m = re.search(r",\s*(\w+)\s*$", args, re.DOTALL)
    if m and m.group(1) not in ("true", "false"):
        return f"var:{m.group(1)}"
    return ""


def scan_metrics(rel, text, registrations, metric_sites, findings):
    if rel in METRIC_REGISTRY_FILES:
        return
    for m in GET_METRIC_RE.finditer(text):
        kind = m.group(1)
        line = line_of(text, m.start())
        args = balanced_args(text, m.end() - 1)
        name_m = STRING_LITERAL_RE.search(args)
        if not name_m:
            findings.append(
                Finding(rel, line, "metric-name",
                        f"{kind} call without a literal metric name; metric names "
                        "must be compile-time literals so the linter can audit them")
            )
            continue
        name = name_m.group(1)
        ok, scheme = metric_kind_checks(kind, name)
        if ok:
            metric_sites.setdefault(name, []).append((rel, line))
        else:
            findings.append(
                Finding(rel, line, "metric-name",
                        f"metric '{name}' does not match the naming scheme {scheme}")
            )
        registrations.setdefault((name, labels_key(args)), []).append((rel, line))


def report_metric_catalog(root, metric_sites, findings):
    """Registered metric names and README metric-table rows must match.

    ``metric_sites`` holds only well-formed names: a malformed one is
    already a metric-name finding, and must be renamed, not documented.
    """
    readme = load_doc(root, "README.md")
    if readme is None:
        return
    rows = {}
    for m in README_METRIC_ROW_RE.finditer(readme):
        rows.setdefault(m.group(1), line_of(readme, m.start()))
    for name, occurrences in sorted(metric_sites.items()):
        if name in rows:
            continue
        file, line = occurrences[0]
        findings.append(
            Finding(file, line, "metric-catalog",
                    f"metric '{name}' has no row in the README metric table; "
                    "every exported series must be documented there")
        )
    for name, line in sorted(rows.items()):
        if name in metric_sites:
            continue
        findings.append(
            Finding("README.md", line, "metric-catalog",
                    f"README metric table lists '{name}', which no "
                    "GetCounter/GetGauge/GetHistogram call registers")
        )


def scan_failpoints(rel, text, sites, findings):
    for m in FAILPOINT_RE.finditer(text):
        name = m.group(1)
        line = line_of(text, m.start())
        if not FAILPOINT_NAME_RE.match(name):
            findings.append(
                Finding(rel, line, "failpoint-name",
                        f"fail point '{name}' does not match the naming scheme "
                        "<area>/<site> (lowercase, dash-separated words)")
            )
        sites.setdefault(name, []).append((rel, line))


def load_doc(root, name):
    """The text of the document ``name`` a catalog rule checks against, or None.

    Looks in the linted tree first, then one level up (the repo layout:
    ``--root src`` with DESIGN.md, README.md and tests/ at the repo root).
    Returning None keeps the rule silent for trees without the document,
    so single-fixture scratch copies exercise only their own rule.
    """
    for candidate in (os.path.join(root, name), os.path.join(root, os.pardir, name)):
        if os.path.isfile(candidate):
            with open(candidate, encoding="utf-8") as f:
                return f.read()
    return None


def report_failpoint_catalog(root, sites, findings):
    catalog = load_doc(root, "DESIGN.md")
    if catalog is None:
        return
    for name, occurrences in sorted(sites.items()):
        # Malformed names are already failpoint-name findings; demanding a
        # catalog entry for them would ask for documenting a name that must
        # be renamed instead.
        if not FAILPOINT_NAME_RE.match(name):
            continue
        if f"`{name}`" in catalog:
            continue
        file, line = occurrences[0]
        findings.append(
            Finding(file, line, "failpoint-catalog",
                    f"fail point '{name}' is not listed in the DESIGN.md "
                    "fail-point catalog; every site an operator can arm "
                    "must be documented there")
        )


def report_duplicates(table, rule, what, findings):
    for name, occurrences in sorted(table.items()):
        if len(occurrences) <= 1:
            continue
        where = ", ".join(f"{f}:{ln}" for f, ln in occurrences)
        for f, ln in occurrences[1:]:
            findings.append(
                Finding(f, ln, rule,
                        f"{what} '{name}' registered at more than one site ({where}); "
                        "each must have exactly one")
            )


# ------------------------------------------------------------ wire contract


def scan_wire_doc(rel, text, wire_doc):
    """Collects opcodes and ``*Msg`` fields from wire headers.

    Only headers with "wire" in the basename are the protocol definition;
    enums or Msg structs elsewhere (handlers, tests) are not the contract.
    """
    base = os.path.basename(rel)
    if not base.endswith(".h") or "wire" not in base:
        return
    for m in WIRE_OPCODE_ENUM_RE.finditer(text):
        enum_name = m.group(1)
        for om in WIRE_OPCODE_RE.finditer(m.group(2)):
            wire_doc["opcodes"].append(
                (rel, line_of(text, m.start(2) + om.start()), enum_name,
                 om.group(1), om.group(2)))
    for m in WIRE_MSG_STRUCT_RE.finditer(text):
        struct_name = m.group(1)
        open_brace = m.end() - 1
        depth = 0
        end = len(text)
        for i in range(open_brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        # Blank nested braces so method bodies never read as fields; skip
        # lines with '(' (methods) or 'static' (named constructors).
        surface = top_level_text(text[open_brace + 1 : end])
        pos = open_brace + 1
        for line in surface.split("\n"):
            if "(" not in line and "static" not in line:
                fm = WIRE_FIELD_RE.match(line)
                if fm:
                    wire_doc["fields"].append(
                        (rel, line_of(text, pos + fm.start(1)), struct_name,
                         fm.group(1)))
            pos += len(line) + 1


def report_wire_doc(root, wire_doc, findings):
    """Every opcode hex and Msg field must be backticked in DESIGN.md."""
    catalog = load_doc(root, "DESIGN.md")
    if catalog is None:
        return
    for rel, line, enum_name, kname, hexval in wire_doc["opcodes"]:
        if f"`{hexval}`" in catalog:
            continue
        findings.append(
            Finding(rel, line, "wire-doc",
                    f"wire opcode {enum_name}::{kname} ({hexval}) is not in "
                    f"the DESIGN.md wire table; document it as `{hexval}` so "
                    "the on-the-wire contract never drifts from the code"))
    for rel, line, struct_name, field in wire_doc["fields"]:
        if f"`{field}`" in catalog:
            continue
        findings.append(
            Finding(rel, line, "wire-doc",
                    f"wire message field {struct_name}.{field} is not in the "
                    f"DESIGN.md wire table; document it as `{field}` so the "
                    "on-the-wire contract never drifts from the code"))


# ------------------------------------------------------- decoder discipline

# Raw-byte-read idioms banned outside ByteCursor: bulk copies, type puns,
# arithmetic or indexing off a buffer's .data(), and *p++ walks. Plain
# std::string find/substr slicing stays legal — it is bounds-checked by
# construction.
DECODER_BAN_RES = (
    (re.compile(r"\bmem(?:cpy|move)\s*\("), "memcpy/memmove"),
    (re.compile(r"\breinterpret_cast\b"), "reinterpret_cast"),
    (re.compile(r"\.data\s*\(\s*\)\s*[+\[]"), "pointer arithmetic off .data()"),
    (re.compile(r"\*\s*\w+\s*\+\+"), "*p++ pointer walk"),
)


def scan_decoder_discipline(rel, code, findings):
    for ban_re, what in DECODER_BAN_RES:
        for m in ban_re.finditer(code):
            findings.append(
                Finding(rel, line_of(code, m.start()), "decoder-discipline",
                        f"{what} on the decode path; untrusted bytes are read "
                        "only through the ByteCursor API (net/cursor.h), the "
                        "single audited home of raw reads")
            )


# ----------------------------------------------------------- fuzzer catalog


def find_fuzz_targets(root):
    """``fuzz_*`` stems of the fuzz dir beside the linted tree, or [].

    Same two-level lookup as ``load_doc``: ``<root>/fuzz``
    first, then ``<root>/../fuzz`` (the repo layout: ``--root src`` with
    fuzz/ at the repo root). Missing dir means no targets to audit.
    """
    for candidate in (os.path.join(root, "fuzz"), os.path.join(root, os.pardir, "fuzz")):
        if os.path.isdir(candidate):
            return sorted(
                name[:-len(".cc")] for name in os.listdir(candidate)
                if name.startswith("fuzz_") and name.endswith(".cc"))
    return []


def report_fuzzer_catalog(root, findings):
    catalog = load_doc(root, "DESIGN.md")
    if catalog is None:
        return
    for target in find_fuzz_targets(root):
        if f"`{target}`" in catalog:
            continue
        findings.append(
            Finding(f"fuzz/{target}.cc", 1, "fuzzer-catalog",
                    f"fuzz target '{target}' is not listed in the DESIGN.md "
                    "fuzzing catalog; every harness a developer can run must "
                    "be documented there")
        )


# ----------------------------------------------------------- rewrite catalog


def scan_rewrite_rules(rel, text, rewrite_sites):
    if not rel.startswith("rewrite/"):
        return
    for m in REWRITE_NAME_RE.finditer(text):
        rewrite_sites.setdefault(m.group(1), []).append(
            (rel, line_of(text, m.start())))


def report_rewrite_catalog(root, rewrite_sites, findings):
    catalog = load_doc(root, "DESIGN.md")
    if catalog is None:
        return
    tests = load_doc(root, os.path.join("tests", "test_rewrite.cc"))
    for name, occurrences in sorted(rewrite_sites.items()):
        file, line = occurrences[0]
        if f"`{name}`" not in catalog:
            findings.append(
                Finding(file, line, "rewrite-catalog",
                        f"rewrite rule '{name}' is not listed in the DESIGN.md "
                        "rewrite-rule catalog (s14); every L(C) rewrite needs "
                        "its soundness argument documented there")
            )
        if tests is not None and f'"{name}"' not in tests:
            findings.append(
                Finding(file, line, "rewrite-catalog",
                        f"rewrite rule '{name}' is never exercised in "
                        "tests/test_rewrite.cc; every rewrite rule must "
                        "pass the seeded L(C)-equivalence rule tester")
            )


# ------------------------------------------------------------ solver loops


def scan_solver_loops(rel, code, findings):
    """Flags atomics / metric mutations inside for/while/do bodies."""
    # For each '{', decide whether its statement header (text since the
    # previous ';', '{' or '}') is a loop; a position is "in a loop" when
    # any enclosing brace is.
    stack = []
    header_start = 0
    loop_regions = []  # (start, end) char ranges of loop bodies
    open_loop_starts = []
    for i, c in enumerate(code):
        if c in ";{}":
            if c == "{":
                header = code[header_start:i]
                is_loop = bool(LOOP_HEADER_RE.search(header))
                stack.append(is_loop)
                if is_loop:
                    open_loop_starts.append(i)
            elif c == "}":
                if stack:
                    was_loop = stack.pop()
                    if was_loop and open_loop_starts:
                        loop_regions.append((open_loop_starts.pop(), i))
            header_start = i + 1
    for m in SOLVER_ATOMIC_RE.finditer(code):
        if any(start < m.start() < end for start, end in loop_regions):
            findings.append(
                Finding(rel, line_of(code, m.start()), "solver-atomic",
                        f"'{m.group(0).strip()}' inside a solver inner loop; "
                        "accumulate thread-locally and flush at procedure exit "
                        "(DESIGN.md s8 flush-at-boundary rule)")
            )


# ---------------------------------------------------------- include guards


def scan_include_guard(rel, raw, findings):
    expected = "DIFFC_" + re.sub(r"[/.]", "_", rel).upper() + "_"
    ifndef = re.search(r"^#ifndef\s+(\S+)", raw, re.MULTILINE)
    if not ifndef:
        findings.append(Finding(rel, 1, "include-guard",
                                f"missing include guard (expected {expected})"))
        return
    got = ifndef.group(1)
    line = line_of(raw, ifndef.start())
    if got != expected:
        findings.append(
            Finding(rel, line, "include-guard",
                    f"include guard '{got}' should be '{expected}'")
        )
        return
    define = re.search(r"^#define\s+(\S+)", raw, re.MULTILINE)
    if not define or define.group(1) != expected:
        findings.append(
            Finding(rel, line, "include-guard",
                    f"#define after #ifndef must define '{expected}'")
        )
    closes = re.findall(r"^#endif\s*//\s*(\S+)\s*$", raw, re.MULTILINE)
    if not closes or closes[-1] != expected:
        findings.append(
            Finding(rel, raw.count("\n") + 1, "include-guard",
                    f"closing #endif must carry the comment '// {expected}'")
        )


# ----------------------------------------------------------- mutex members


def class_bodies(code):
    """Yields (body_start, body_text) for every class/struct body."""
    for m in CLASS_RE.finditer(code):
        open_brace = m.end() - 1
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    yield open_brace + 1, code[open_brace + 1 : i]
                    break


def top_level_text(body):
    """The class body with nested brace contents blanked (newlines kept)."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            out.append(c)
        elif c == "}":
            depth -= 1
            out.append(c)
        elif depth > 0 and c != "\n":
            out.append(" ")
        else:
            out.append(c)
    return "".join(out)


def scan_mutex_members(rel, code, findings):
    if rel in MUTEX_WRAPPER_FILES:
        return
    for body_start, body in class_bodies(code):
        surface = top_level_text(body)
        for m in MUTEX_MEMBER_RE.finditer(surface):
            mutex_type, member = m.group(1), m.group(2)
            line = line_of(code, body_start + m.start(1))
            if mutex_type == "std::mutex":
                findings.append(
                    Finding(rel, line, "mutex-guarded-by",
                            f"raw std::mutex member '{member}'; use diffc::Mutex "
                            "(util/mutex.h) so the thread-safety analysis can "
                            "track it")
                )
            elif not re.search(rf"GUARDED_BY\s*\(\s*{re.escape(member)}\s*\)", body):
                findings.append(
                    Finding(rel, line, "mutex-guarded-by",
                            f"Mutex member '{member}' has no GUARDED_BY({member}) "
                            "sibling; an unannotated mutex protects nothing the "
                            "analysis can prove")
                )


# ------------------------------------------------------- locks & discards


def scan_naked_locks(rel, code, findings):
    if rel in MUTEX_WRAPPER_FILES:
        return
    for m in NAKED_LOCK_RE.finditer(code):
        findings.append(
            Finding(rel, line_of(code, m.start()), "naked-lock",
                    f"std::{m.group(1)} is invisible to the thread-safety "
                    "analysis; use MutexLock (util/mutex.h)")
        )


def scan_void_discards(rel, raw, findings):
    lines = raw.split("\n")
    for i, line in enumerate(lines):
        if not VOID_DISCARD_RE.match(line):
            continue
        has_comment = "//" in line or (i > 0 and lines[i - 1].strip().startswith("//"))
        if not has_comment:
            findings.append(
                Finding(rel, i + 1, "void-discard",
                        "(void) discard without an adjacent comment explaining "
                        "why the value cannot matter")
            )


# ------------------------------------------------------------------ driver


def lint_file(root, rel, registrations, metric_sites, failpoint_sites, wire_doc,
              rewrite_sites, findings):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        raw = f.read()
    no_comments, code_only = strip_comments(raw)
    scan_metrics(rel, no_comments, registrations, metric_sites, findings)
    scan_failpoints(rel, no_comments, failpoint_sites, findings)
    scan_wire_doc(rel, no_comments, wire_doc)
    scan_rewrite_rules(rel, no_comments, rewrite_sites)
    if rel in SOLVER_LOOP_FILES:
        scan_solver_loops(rel, code_only, findings)
    if rel in DECODER_PATH_FILES:
        scan_decoder_discipline(rel, code_only, findings)
    if rel.endswith(".h"):
        scan_include_guard(rel, raw, findings)
    scan_mutex_members(rel, code_only, findings)
    scan_naked_locks(rel, code_only, findings)
    scan_void_discards(rel, raw, findings)


def lint_tree(root):
    findings = []
    registrations = {}
    metric_sites = {}
    failpoint_sites = {}
    wire_doc = {"opcodes": [], "fields": []}
    rewrite_sites = {}
    rels = []
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                rels.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(rels):
        lint_file(root, rel.replace(os.sep, "/"), registrations, metric_sites,
                  failpoint_sites, wire_doc, rewrite_sites, findings)
    report_wire_doc(root, wire_doc, findings)
    metric_display = {}
    for (name, labels), occurrences in registrations.items():
        metric_display[name if not labels else f"{name} {labels}"] = occurrences
    report_duplicates(metric_display, "metric-dup", "metric", findings)
    report_metric_catalog(root, metric_sites, findings)
    report_duplicates(failpoint_sites, "failpoint-dup", "fail point", findings)
    report_failpoint_catalog(root, failpoint_sites, findings)
    report_fuzzer_catalog(root, findings)
    report_rewrite_catalog(root, rewrite_sites, findings)
    return findings


def check_fixtures(fixtures_dir):
    """Fails on fixture-directory drift: dead rules or a dirty good tree."""
    bad = os.path.join(fixtures_dir, "bad")
    good = os.path.join(fixtures_dir, "good")
    if not os.path.isdir(bad) or not os.path.isdir(good):
        print(f"diffc_lint: {fixtures_dir} must contain bad/ and good/ trees",
              file=sys.stderr)
        return 2
    drift = 0
    fired = {f.rule for f in lint_tree(bad)}
    for rule in ALL_RULES:
        if rule not in fired:
            print(f"diffc_lint: rule '{rule}' fires on nothing under {bad}; "
                  "a rule with no bad fixture is a dead rule")
            drift += 1
    for stray in sorted(fired - set(ALL_RULES)):
        print(f"diffc_lint: bad fixtures fire unknown rule '{stray}'; "
              "update ALL_RULES or the fixture")
        drift += 1
    for finding in lint_tree(good):
        print(f"diffc_lint: good fixture tree must be clean, got: {finding}")
        drift += 1
    print(f"diffc_lint: fixture audit: {len(ALL_RULES)} rule(s), "
          f"{drift} drift problem(s)", file=sys.stderr)
    return 1 if drift else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="source tree to lint (e.g. src); required unless "
                             "--check-fixtures is given")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON; findings listed there are suppressed")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline with the current findings")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--check-fixtures", metavar="DIR", default=None,
                        help="audit the golden fixture trees under DIR instead of "
                             "linting --root: every rule must fire under DIR/bad "
                             "(a rule with no bad fixture is a dead rule) and "
                             "DIR/good must be clean")
    args = parser.parse_args(argv[1:])

    if args.check_fixtures:
        return check_fixtures(args.check_fixtures)

    if not args.root:
        print("diffc_lint: --root is required (or use --check-fixtures)",
              file=sys.stderr)
        return 2
    if not os.path.isdir(args.root):
        print(f"diffc_lint: no such directory: {args.root}", file=sys.stderr)
        return 2

    findings = lint_tree(args.root)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    baseline_keys = set()
    if args.baseline and os.path.exists(args.baseline) and not args.write_baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        for entry in baseline.get("findings", []):
            baseline_keys.add((entry["rule"], entry["file"], entry["message"]))

    if args.write_baseline:
        if not args.baseline:
            print("diffc_lint: --write-baseline requires --baseline", file=sys.stderr)
            return 2
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({
                "comment": "Grandfathered diffc_lint findings. Do not add to this "
                           "file by hand: fix the finding, or rerun with "
                           "--write-baseline and justify the growth in review.",
                "findings": [
                    {"rule": f.rule, "file": f.file, "message": f.message}
                    for f in findings
                ],
            }, f, indent=2)
            f.write("\n")
        print(f"diffc_lint: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    fresh = [f for f in findings if f.key() not in baseline_keys]
    suppressed = len(findings) - len(fresh)

    if args.format == "json":
        print(json.dumps({
            "findings": [f.as_dict() for f in fresh],
            "suppressed": suppressed,
        }, indent=2))
    else:
        for f in fresh:
            print(str(f))
        summary = f"diffc_lint: {len(fresh)} finding(s)"
        if suppressed:
            summary += f", {suppressed} suppressed by baseline"
        print(summary, file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
