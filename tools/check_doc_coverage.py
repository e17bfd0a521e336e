#!/usr/bin/env python3
"""Approximate the CI Doxygen gate without Doxygen installed.

Walks the documented API headers (src/core, src/engine, src/thermal,
src/obs, src/search, plus the individually listed util and circuit
headers) and reports public declarations that are not immediately
preceded by a `///` doc comment. This is a lightweight lexical check -
the authoritative gate is `doxygen Doxyfile` in CI (WARN_AS_ERROR =
FAIL_ON_WARNINGS) - but it catches the common case (a new public member
without a doc comment) before a push.

Usage: tools/check_doc_coverage.py [header-dir-or-file ...]
Exit codes: 0 all declarations documented, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

DEFAULT_DIRS = [
    "src/core",
    "src/engine",
    "src/thermal",
    "src/obs",
    "src/search",
    # The SIMD lane-solver API (SolverKernel::solveLanes and its lanes)
    # and the order-free sum behind every estimator total, documented file
    # by file (their home directories are otherwise internal). Keep in
    # sync with Doxyfile INPUT.
    "src/util/simd.h",
    "src/util/order_free_sum.h",
    "src/circuit/solver_kernel.h",
]

# Lines that open a documentable declaration. Deliberately coarse: we only
# look at access-public regions of headers and skip continuations.
DECL_RE = re.compile(
    r"^\s*(?:template\s*<.*>\s*)?"
    r"(class|struct|enum\s+class|enum|using\s+\w+\s*=|"
    r"(?:inline\s+|static\s+|constexpr\s+|explicit\s+|virtual\s+|friend\s+)*"
    r"[A-Za-z_][\w:<>,\s&*]*[\s&*])"
)
SKIP_RE = re.compile(
    r"^\s*(//|///|/\*|\*|#|\{|\}|$|public:|private:|protected:|namespace\b|"
    r"using namespace|typedef\b|friend\b|\)|:)"
)


def leading_token_is_documented(lines, i):
    j = i - 1
    while j >= 0 and (
        lines[j].strip() == "" or lines[j].strip().startswith("template")
    ):
        j -= 1
    if j < 0:
        return False
    stripped = lines[j].strip()
    return (
        stripped.startswith("///")
        or stripped.endswith("*/")
        or "///<" in lines[i]
    )


def public_regions(text):
    """Yield (line_number, line) pairs that sit in a public region.

    Tracks a real scope stack: every '{' pushes a scope (tagged 'class',
    'struct' or 'other'), every '}' pops one, and access specifiers
    rewrite the innermost class/struct scope - so a class ending in a
    private section never leaks its access level onto the declarations
    that follow it in the file.
    """
    scopes = []  # each: {"kind": "class"|"struct"|"namespace"|"body", ...}
    in_block_comment = False
    pending = None  # class/struct/namespace head seen, waiting for its '{'
    for number, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        if stripped.startswith("//"):
            continue
        access_match = re.match(r"^(public|private|protected)\s*:", stripped)
        if access_match:
            for scope in reversed(scopes):
                if scope["kind"] in ("class", "struct"):
                    scope["access"] = access_match.group(1)
                    break
        head = re.match(r"^(?:template\s*<[^>]*>\s*)?(class|struct)\s+\w", stripped)
        if head and ";" not in stripped.split("{")[0]:
            pending = head.group(1)
        elif stripped.startswith("namespace"):
            pending = "namespace"
        in_public = all(
            s["access"] in ("public", "struct")
            for s in scopes
            if s["kind"] in ("class", "struct")
        ) and not any(s["kind"] == "body" for s in scopes)
        if in_public:
            yield number, line
        code = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line.split("//")[0])
        for ch in code:
            if ch == "{":
                if pending == "namespace":
                    scopes.append({"kind": "namespace", "access": "public"})
                    pending = None
                elif pending is not None:
                    scopes.append({
                        "kind": pending,
                        "access": "struct" if pending == "struct" else "private",
                    })
                    pending = None
                else:
                    # Any other brace opens a function/enum/initializer
                    # body: its statements are not documentable entities.
                    scopes.append({"kind": "body", "access": "public"})
            elif ch == "}" and scopes:
                scopes.pop()
        if pending and (";" in code):
            pending = None  # forward declaration, no body


def check_file(path):
    text = path.read_text()
    lines = text.splitlines()
    findings = []
    in_public = dict(public_regions(text))
    for i, line in enumerate(lines):
        if i not in in_public:
            continue
        stripped = line.strip()
        if SKIP_RE.match(line) or not DECL_RE.match(line):
            continue
        # Continuation lines of a multi-line declaration are skipped: they
        # do not end a statement themselves and the opener was checked.
        if i > 0 and lines[i - 1].rstrip().endswith((",", "(", "&&", "||", "=")):
            continue
        # Macro-definition continuations (#define bodies spanning lines)
        # are preprocessor text, not declarations.
        if i > 0 and lines[i - 1].rstrip().endswith("\\"):
            continue
        # Forward declarations are not documentable entities.
        if re.match(r"^\s*(class|struct)\s+\w+\s*;\s*$", stripped):
            continue
        # First line of an inline function body (the opener - a signature
        # line ending in '{' - was already checked).
        prev = lines[i - 1].rstrip() if i > 0 else ""
        if prev.endswith("{") and "(" in prev:
            continue
        if re.match(r"^\s*(return|throw|if|for|while|switch|else)\b", stripped):
            continue
        if not leading_token_is_documented(lines, i):
            findings.append((i + 1, stripped))
    return findings


def main(argv):
    dirs = argv[1:] or DEFAULT_DIRS
    total = 0
    for entry in dirs:
        root = Path(entry)
        if root.is_file():
            paths = [root]
        elif root.is_dir():
            paths = sorted(root.glob("*.h"))
        else:
            print(f"error: not a directory or header: {entry}", file=sys.stderr)
            return 2
        for path in paths:
            for line_number, decl in check_file(path):
                print(f"{path}:{line_number}: undocumented: {decl}")
                total += 1
    if total:
        print(f"\n{total} undocumented declaration(s)", file=sys.stderr)
        return 1
    print("all public declarations documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
