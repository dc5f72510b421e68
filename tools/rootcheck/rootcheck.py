#!/usr/bin/env python3
"""rootcheck: static rooting-discipline lint for the gengc codebase.

The collector moves objects, so a bare ``Value`` held in a C++ local is
invalidated by any allocation (every allocation is a safepoint). The
rooting discipline — wrap values that live across safepoints in
``Root``/``RootVector``, or prove the region allocation-free with
``NoGcScope`` — is enforced at runtime only when a collection actually
strikes the window. This lint closes the gap statically: it flags the
hazardous *source pattern*, whether or not any test happens to collect
inside it.

Rules
-----
``unrooted-value``
    A bare ``Value`` (or raw ``uintptr_t *``) local is read after a
    call to an allocating ``Heap`` method that occurs later in the same
    scope than the local's definition, without an intervening
    reassignment and without an enclosing ``NoGcScope``.

``segment-base``
    ``segmentBase`` arithmetic outside ``src/heap/``. Only the arena
    substrate may touch raw segment memory; everything else goes
    through typed accessors.

``barrier-bypass``
    A raw slot write (``pairSetCarRaw``/``pairSetCdrRaw``/
    ``objectFieldSetRaw``, or a direct ``->Car``/``->Cdr`` bit store)
    outside the GC/heap/object internals. Raw writes skip the
    generational write barrier, so an old-to-young pointer stored this
    way is invisible to minor collections and the target is freed while
    still reachable. Mutator code must go through the ``Heap`` mutation
    API (``setCar``/``vectorSet``/...).

``unique-unreachable``
    Two ``GENGC_UNREACHABLE`` sites share a message string. Messages
    are the only thing a crash report shows, so each must identify its
    site uniquely.

``iwyu-lite``
    A header uses a standard-library name whose header is not reachable
    through its include closure, i.e. the header is not self-contained.

Suppression: ``// rootcheck:allow(rule-id)`` on the offending line or
the line above it. Diagnostics print as ``file:line: rule-id: message``
and a nonzero exit status reports that at least one was emitted.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"rootcheck:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# The Heap methods that may allocate (and therefore poll the safepoint,
# where a collection can move every unrooted object). Kept in sync with
# the public allocation entry points in src/gc/Heap.h.
ALLOCATING_METHODS = {
    "cons", "weakCons", "makeVector", "makeString", "makeBytevector",
    "makeFlonum", "makeBox", "makeRecord", "makeClosure", "makePrimitive",
    "makePortHandle", "intern", "makeUninternedSymbol", "makeList",
    "makeGuardianTconc", "makeGuardianObject", "collect", "collectMinor",
    "collectFull", "safepoint", "tconcAppend",
}

# Receivers that denote the heap in this codebase's idiom.
HEAP_RECEIVER = r"(?:\bH\s*\.|\bH2\s*\.|\bheap\(\)\s*\.|\bHeap\s*\.)"

SAFEPOINT_RE = re.compile(
    HEAP_RECEIVER + r"(" + "|".join(sorted(ALLOCATING_METHODS)) + r")\s*\("
)

# A bare Value local: `Value Name = ...;` or `Value Name;`. Also raw
# word pointers into the heap. References and pointers to Value are
# excluded (they alias storage the collector updates in place).
VALUE_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:Value|uintptr_t\s*\*)\s*(?:const\s+)?"
    r"\b(?!nil|fromBits)([A-Za-z_]\w*)\s*(=|;|\()"
)

# Assignments from tag-immediate constructors never hold heap pointers.
IMMEDIATE_INIT_RE = re.compile(
    r"=\s*Value::(?:nil|trueV|falseV|voidV|unbound|eof|fixnum|boolean|"
    r"character)\s*\("
)

COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


@dataclass
class Diagnostic:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def allowed_rules(lines: list[str], index: int) -> set[str]:
    """Rules suppressed at line ``index`` (0-based): an allow-comment on
    the line itself or anywhere in the contiguous comment block directly
    above it."""
    rules: set[str] = set()
    if 0 <= index < len(lines):
        for match in ALLOW_RE.finditer(lines[index]):
            rules.update(r.strip() for r in match.group(1).split(","))
    look = index - 1
    in_statement = True
    while look >= 0:
        stripped = lines[look].strip()
        if stripped.startswith("//"):
            for match in ALLOW_RE.finditer(lines[look]):
                rules.update(r.strip() for r in match.group(1).split(","))
            look -= 1
            continue
        # A preceding code line that does not finish a statement is part
        # of the same statement as `index`; keep walking so a comment
        # above a multi-line statement covers all of its lines.
        if in_statement and stripped and not stripped.endswith((";", "{", "}")):
            look -= 1
            continue
        break
    return rules


def strip_code(line: str) -> str:
    """Removes string literals and // comments so token scans don't
    match inside them."""
    return COMMENT_RE.sub("", STRING_RE.sub('""', line))


def iter_source_files(roots: list[str], suffixes: tuple[str, ...]):
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(suffixes):
                yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    yield os.path.join(dirpath, name)


# ---------------------------------------------------------------------------
# Rule: unrooted-value.
# ---------------------------------------------------------------------------

@dataclass
class Local:
    name: str
    decl_line: int  # 0-based
    depth: int
    heapish: bool  # Ever assigned something that may be a heap pointer.
    safepoint_line: int | None = None  # Last safepoint since (re)definition.
    safepoint_depth: int = 0  # Brace depth where that safepoint ran.
    # True while the (re)defining statement is still open across
    # physical lines; its own initializer is not a prior safepoint.
    defining: bool = False
    clear_line: int = -1  # Line of the last (re)definition's end.


DIVERGE_RE = re.compile(r"^\s*(?:break|continue|goto\s+\w+|return\b[^;]*)\s*;")


def check_unrooted_values(path: str, lines: list[str]) -> list[Diagnostic]:
    """Scope-aware, statement-ordered scan. Within one brace scope, a
    bare Value defined at line D, with an allocating Heap call at line
    S > D, and a read at line U > S (before any reassignment) is a
    violation. Marking is statement-granular: lines of the allocating
    statement itself are its arguments (the callee roots them), so only
    code *after* the statement is in the hazard window. A nested block
    whose last statement diverges (break/continue/return) retracts its
    marks when it closes — control cannot flow from its allocation to
    the code after it. A NoGcScope discharges its whole scope: any
    allocation inside would assert at runtime instead."""
    diags: list[Diagnostic] = []
    depth = 0
    locals_stack: list[Local] = []
    nogc_depths: list[int] = []
    # Per-depth flag: did the last complete statement at this depth
    # diverge? Index 0 is function scope.
    diverge_flags: dict[int, bool] = {}
    # An allocating statement is open; vars get marked once it ends.
    pending_safepoint: int | None = None

    for index, raw in enumerate(lines):
        line = strip_code(raw)

        # NoGcScope constructed in this scope protects it and everything
        # nested until the scope closes.
        if re.search(r"\bNoGcScope\s+\w+", line):
            nogc_depths.append(depth)

        in_nogc = bool(nogc_depths)

        statement_ends = ";" in line

        decl = VALUE_DECL_RE.match(line)
        decl_name = decl.group(1) if decl else None
        if decl and not in_nogc:
            heapish = not IMMEDIATE_INIT_RE.search(line)
            locals_stack.append(
                Local(decl_name, index, depth, heapish,
                      defining=not statement_ends,
                      clear_line=index if statement_ends else -1))

        in_safepoint_stmt = pending_safepoint is not None

        # Reassignment re-defines: the variable is fresh again. An
        # immediate assignment also clears heap-pointer-ness.
        for var in locals_stack:
            if var.name == decl_name and var.decl_line == index:
                continue
            if var.defining:
                # Still inside the variable's own (re)defining
                # statement; the initializer call is not a hazard.
                if statement_ends:
                    var.defining = False
                    var.clear_line = index
                continue
            assign = re.match(
                r"^\s*" + re.escape(var.name) + r"\s*=[^=]", line
            )
            if assign:
                var.safepoint_line = None
                var.heapish = not IMMEDIATE_INIT_RE.search(line)
                var.defining = not statement_ends
                var.clear_line = index if statement_ends else -1
                continue
            if (var.safepoint_line is not None and var.heapish
                    and not in_safepoint_stmt):
                if re.search(r"\b" + re.escape(var.name) + r"\b", line):
                    if "unrooted-value" not in allowed_rules(lines, index):
                        diags.append(Diagnostic(
                            path, index + 1, "unrooted-value",
                            f"'{var.name}' is a bare Value read here, but "
                            f"the allocating call at line "
                            f"{var.safepoint_line + 1} may have moved it; "
                            "wrap it in a Root/RootVector or enclose the "
                            "region in a NoGcScope",
                        ))
                    var.safepoint_line = None  # One report per window.

        # An allocating call opens a hazard window. Reads on the lines
        # of the allocating statement itself are the call's own
        # arguments (rooted by the callee before it polls), so marking
        # waits for the end of the statement.
        if not in_nogc and SAFEPOINT_RE.search(line):
            if "unrooted-value" not in allowed_rules(lines, index):
                if pending_safepoint is None:
                    pending_safepoint = index
        if pending_safepoint is not None and statement_ends:
            for var in locals_stack:
                if (var.decl_line < pending_safepoint and not var.defining
                        and var.depth <= depth
                        and var.clear_line < pending_safepoint):
                    if var.safepoint_line is None:
                        var.safepoint_line = pending_safepoint
                        var.safepoint_depth = depth
            pending_safepoint = None

        # Track whether the last complete statement at this depth
        # diverges, for mark retraction at scope close.
        if DIVERGE_RE.match(line):
            diverge_flags[depth] = True
        elif line.strip() and line.strip() not in "{}" and statement_ends:
            diverge_flags[depth] = False

        for ch in line:
            if ch == "{":
                depth += 1
                diverge_flags[depth] = False
            elif ch == "}":
                closing = depth
                depth -= 1
                locals_stack = [v for v in locals_stack if v.depth < depth + 1]
                if diverge_flags.get(closing, False):
                    # Control cannot continue past this block; its
                    # allocations are not hazards for what follows.
                    for var in locals_stack:
                        if (var.safepoint_line is not None
                                and var.safepoint_depth >= closing):
                            var.safepoint_line = None
                while nogc_depths and nogc_depths[-1] > max(depth, 0):
                    nogc_depths.pop()
                if depth <= 0:
                    depth = 0
                    locals_stack = []
                    nogc_depths = []
                    pending_safepoint = None
    return diags


# ---------------------------------------------------------------------------
# Rule: segment-base.
# ---------------------------------------------------------------------------

def check_segment_base(path: str, rel: str, lines: list[str]) -> list[Diagnostic]:
    if rel.replace(os.sep, "/").startswith(("src/heap/", "tools/")):
        return []
    diags = []
    for index, raw in enumerate(lines):
        if "segmentBase" not in strip_code(raw):
            continue
        if "segment-base" in allowed_rules(lines, index):
            continue
        diags.append(Diagnostic(
            path, index + 1, "segment-base",
            "raw segmentBase arithmetic outside src/heap/; go through "
            "typed accessors, or annotate the collector-internal use "
            "with rootcheck:allow(segment-base)",
        ))
    return diags


# ---------------------------------------------------------------------------
# Rule: barrier-bypass.
# ---------------------------------------------------------------------------

# The raw slot-write idioms: the Layout.h unbarriered setters and direct
# bit stores into pair cells. Matching the *call/store site* catches
# both `pairSetCarRaw(P, V)` and `gengc::pairSetCarRaw(P, V)`.
BARRIER_BYPASS_RE = re.compile(
    r"\b(?:pairSetCarRaw|pairSetCdrRaw|objectFieldSetRaw)\s*\("
    r"|->\s*(?:Car|Cdr)\s*=[^=]"
)

# Directories whose job is to implement the barrier and the object
# layout: the collector writes forward markers and copies cells, the
# heap implements the barriered mutators on top of the raw ones,
# and the arena substrate owns segment memory outright.
BARRIER_INTERNAL_PREFIXES = ("src/gc/", "src/heap/", "src/object/")


def check_barrier_bypass(path: str, rel: str,
                         lines: list[str]) -> list[Diagnostic]:
    if rel.replace(os.sep, "/").startswith(BARRIER_INTERNAL_PREFIXES):
        return []
    diags = []
    for index, raw in enumerate(lines):
        if not BARRIER_BYPASS_RE.search(strip_code(raw)):
            continue
        if "barrier-bypass" in allowed_rules(lines, index):
            continue
        diags.append(Diagnostic(
            path, index + 1, "barrier-bypass",
            "raw slot write skips the generational write barrier; an "
            "old-to-young pointer stored here never reaches the "
            "remembered set. Use the Heap mutation API (setCar, "
            "vectorSet, ...), or annotate a collector-internal use with "
            "rootcheck:allow(barrier-bypass)",
        ))
    return diags


# ---------------------------------------------------------------------------
# Rule: unique-unreachable.
# ---------------------------------------------------------------------------

UNREACHABLE_RE = re.compile(r'GENGC_UNREACHABLE\s*\(\s*"((?:[^"\\]|\\.)*)"')


def check_unique_unreachable(files: dict[str, list[str]]) -> list[Diagnostic]:
    seen: dict[str, tuple[str, int]] = {}
    diags = []
    for path, lines in files.items():
        for index, raw in enumerate(lines):
            for match in UNREACHABLE_RE.finditer(raw):
                message = match.group(1)
                if "unique-unreachable" in allowed_rules(lines, index):
                    continue
                if message in seen:
                    first_path, first_line = seen[message]
                    diags.append(Diagnostic(
                        path, index + 1, "unique-unreachable",
                        f'GENGC_UNREACHABLE message "{message}" duplicates '
                        f"{first_path}:{first_line}; crash reports show "
                        "only the message, so each site needs its own",
                    ))
                else:
                    seen[message] = (path, index + 1)
    return diags


# ---------------------------------------------------------------------------
# Rule: iwyu-lite.
# ---------------------------------------------------------------------------

# Standard-library names a self-contained header must be able to see.
TOKEN_HEADERS = {
    "std::string": "<string>",
    "std::vector": "<vector>",
    "std::unique_ptr": "<memory>",
    "std::shared_ptr": "<memory>",
    "std::function": "<functional>",
    "std::unordered_map": "<unordered_map>",
    "std::unordered_set": "<unordered_set>",
    "std::map": "<map>",
    "std::pair": "<utility>",
    "std::move": "<utility>",
    "std::string_view": "<string_view>",
    "std::optional": "<optional>",
    "std::array": "<array>",
    "uint32_t": "<cstdint>",
    "uint64_t": "<cstdint>",
    "uintptr_t": "<cstdint>",
    "intptr_t": "<cstdint>",
    "uint8_t": "<cstdint>",
    "SIZE_MAX": "<cstdint>",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"][^>"]+[>"])', re.MULTILINE)

# Headers whose inclusion implies others for our purposes (e.g.
# <string> guarantees the char_traits machinery of <string_view>).
HEADER_IMPLIES = {
    "<string>": {"<string_view>"},
    "<vector>": {"<cstddef>"},
    "<cstdint>": {"<cstddef>"},
}


def include_closure(header: str, project_root: str,
                    cache: dict[str, set[str]]) -> set[str]:
    """All includes reachable from ``header``: system headers as
    ``<name>`` strings, project headers resolved against src/."""
    norm = os.path.normpath(header)
    if norm in cache:
        return cache[norm]
    cache[norm] = set()  # Cycle guard.
    closure: set[str] = set()
    try:
        with open(norm, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return closure
    for match in INCLUDE_RE.finditer(text):
        spec = match.group(1)
        name = spec[1:-1]
        if spec.startswith("<"):
            closure.add(spec)
            closure.update(HEADER_IMPLIES.get(spec, ()))
            continue
        resolved = os.path.join(project_root, "src", name)
        if os.path.isfile(resolved):
            closure.add(os.path.normpath(resolved))
            closure.update(include_closure(resolved, project_root, cache))
    cache[norm] = closure
    return closure


def check_iwyu_lite(path: str, lines: list[str], project_root: str,
                    cache: dict[str, set[str]]) -> list[Diagnostic]:
    closure = include_closure(path, project_root, cache)
    diags = []
    reported: set[str] = set()
    for index, raw in enumerate(lines):
        line = strip_code(raw)
        if INCLUDE_RE.match(line):
            continue
        for token, header in TOKEN_HEADERS.items():
            if header in closure or header in reported:
                continue
            if re.search(re.escape(token) + r"\b", line):
                if "iwyu-lite" in allowed_rules(lines, index):
                    continue
                diags.append(Diagnostic(
                    path, index + 1, "iwyu-lite",
                    f"header uses {token} but {header} is not reachable "
                    "from its includes; the header is not self-contained",
                ))
                reported.add(header)
    return diags


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def run(project_root: str, paths: list[str]) -> list[Diagnostic]:
    project_root = os.path.abspath(project_root)
    roots = [os.path.join(project_root, p) if not os.path.isabs(p) else p
             for p in paths]

    sources = {
        p: open(p, encoding="utf-8").read().splitlines()
        for p in iter_source_files(roots, (".cpp", ".h"))
    }

    diags: list[Diagnostic] = []
    closure_cache: dict[str, set[str]] = {}
    for path, lines in sorted(sources.items()):
        rel = os.path.relpath(path, project_root)
        # Tests deliberately hold bare Values across explicit collects
        # to observe reclamation, so unrooted-value covers src/ only.
        if rel.replace(os.sep, "/").startswith("src/"):
            diags.extend(check_unrooted_values(path, lines))
        diags.extend(check_segment_base(path, rel, lines))
        diags.extend(check_barrier_bypass(path, rel, lines))
        if path.endswith(".h") and rel.replace(os.sep, "/").startswith("src/"):
            diags.extend(check_iwyu_lite(path, lines, project_root,
                                         closure_cache))
    diags.extend(check_unique_unreachable(sources))
    diags.sort(key=lambda d: (d.path, d.line, d.rule))
    return diags


def run_self_test(fixture_dir: str) -> int:
    """Checks every fixture against its embedded expectations: a line
    ``// expect: rule-id`` demands a diagnostic of that rule on that
    line; fixtures without expectations must produce none."""
    failures = 0
    fixture_dir = os.path.abspath(fixture_dir)
    for path in iter_source_files([fixture_dir], (".cpp", ".h")):
        lines = open(path, encoding="utf-8").read().splitlines()
        expected: set[tuple[int, str]] = set()
        for index, line in enumerate(lines):
            for match in re.finditer(r"//\s*expect:\s*([a-z-]+)", line):
                expected.add((index + 1, match.group(1)))

        files = {path: lines}
        got: set[tuple[int, str]] = set()
        rel = os.path.relpath(path, fixture_dir)
        for diag in (check_unrooted_values(path, lines)
                     + check_segment_base(path, rel, lines)
                     + check_barrier_bypass(path, rel, lines)
                     + check_unique_unreachable(files)):
            got.add((diag.line, diag.rule))

        for missing in sorted(expected - got):
            print(f"{path}:{missing[0]}: self-test: expected a "
                  f"{missing[1]} diagnostic that was not produced")
            failures += 1
        for extra in sorted(got - expected):
            print(f"{path}:{extra[0]}: self-test: unexpected {extra[1]} "
                  "diagnostic")
            failures += 1
    print(f"rootcheck self-test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


# Every tree the lint covers. CTest, CI and scripts/check.sh pass no
# paths, so this list is the only copy. The fixtures stay out: they are
# bad on purpose and are checked by --self-test instead.
DEFAULT_PATHS = ["src", "tests", "bench", "examples", "tools/gcfuzz",
                 "tools/loadgen"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: "
                             + " ".join(DEFAULT_PATHS) + ")")
    parser.add_argument("--root", default=".",
                        help="project root (for src/heap/ scoping and "
                             "include resolution)")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run against annotated fixtures and verify "
                             "their embedded expectations")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(args.self_test)

    paths = args.paths or DEFAULT_PATHS
    for path in paths:
        if not os.path.exists(os.path.join(args.root, path)):
            print(f"rootcheck: no such path: {path} (under root "
                  f"{args.root})", file=sys.stderr)
            return 2
    diags = run(args.root, paths)
    for diag in diags:
        print(diag.render())
    if diags:
        print(f"rootcheck: {len(diags)} diagnostic(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
