"""The project linter: determinism & concurrency invariants as lint rules.

Usage::

    python -m repro.devtools.lint src benchmarks examples
    python -m repro.devtools.lint --format json src
    python -m repro.devtools.lint --list-rules

Paths may be files or directories (directories are walked for ``*.py``).
Exit status: ``0`` clean, ``1`` findings (or unparsable files), ``2``
usage errors.  See :mod:`repro.devtools.rules` for the rule catalog.

Suppression: append ``# repro-lint: disable=REP003`` to the flagged line
(or put it in a comment on the line directly above); several codes may be
comma-separated, and a reason can follow after ``--``::

    runtime.map_ordered(job, payloads)  # repro-lint: disable=REP003 -- probe
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.devtools.rules import ALL_RULES, Finding, Module, Rule

#: Stable schema version of the ``--format json`` payload.
JSON_SCHEMA_VERSION = 1

#: Pseudo-code attached to files the linter cannot parse.
PARSE_ERROR_CODE = "REP000"

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+?))?\s*(?:--.*)?$"
)

_SKIP_DIR_NAMES = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})


def collect_files(paths: Sequence[str]) -> list[Path]:
    """Expand file/directory arguments into a sorted list of ``*.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                    out.add(candidate)
        elif path.is_file():
            out.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(out)


def suppressed_lines(source: str) -> dict[int, Optional[frozenset[str]]]:
    """Map line numbers to suppressed rule codes.

    A value of ``None`` means every code is suppressed on that line (bare
    ``disable``).  A pragma on a comment-only line also covers the next
    line, so long statements can carry the pragma above themselves.
    """
    out: dict[int, Optional[frozenset[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string, token.line)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenizeError:  # pragma: no cover - ast will report it
        return out
    for line_number, comment, physical_line in comments:
        match = _PRAGMA.search(comment)
        if match is None:
            continue
        raw_codes = match.group("codes")
        codes: Optional[frozenset[str]]
        if raw_codes is None:
            codes = None
        else:
            codes = frozenset(
                code.strip() for code in raw_codes.split(",") if code.strip()
            )
        lines = [line_number]
        if physical_line.lstrip().startswith("#"):
            lines.append(line_number + 1)
        for covered in lines:
            existing = out.get(covered, frozenset())
            if codes is None or existing is None:
                out[covered] = None
            else:
                out[covered] = existing | codes
    return out


class LintRunner:
    """Run a rule set over files, honoring suppression pragmas."""

    def __init__(self, rules: Sequence[Rule] = ALL_RULES) -> None:
        self.rules = tuple(rules)

    def lint_source(self, source: str, path: str) -> list[Finding]:
        """All unsuppressed findings for one in-memory source file."""
        normalized = path.replace("\\", "/")
        try:
            tree = ast.parse(source, filename=normalized)
        except SyntaxError as exc:
            return [
                Finding(
                    path=normalized,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    code=PARSE_ERROR_CODE,
                    message=f"could not parse file: {exc.msg}",
                    hint="fix the syntax error; the linter needs a full AST",
                )
            ]
        module = Module(path=normalized, tree=tree, source=source)
        suppressed = suppressed_lines(source)
        findings: list[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(normalized):
                continue
            for finding in rule.check(module):
                codes = suppressed.get(finding.line, frozenset())
                if codes is None or finding.code in codes:
                    continue
                findings.append(finding)
        findings.sort(key=lambda f: (f.line, f.col, f.code))
        return findings

    def lint_file(self, path: Path) -> list[Finding]:
        return self.lint_source(path.read_text(encoding="utf-8"), str(path))

    def lint_paths(self, paths: Sequence[str]) -> tuple[list[Finding], int]:
        """Lint files/directories; returns ``(findings, files_checked)``."""
        files = collect_files(paths)
        findings: list[Finding] = []
        for file_path in files:
            findings.extend(self.lint_file(file_path))
        return findings, len(files)


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.code} {f.message} [hint: {f.hint}]"
        for f in findings
    ]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(
        f"repro-lint: {len(findings)} {noun} in {files_checked} file(s)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
                "hint": f.hint,
            }
            for f in findings
        ],
        "counts_by_code": dict(sorted(counts.items())),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rules(rules: Iterable[Rule]) -> str:
    lines = []
    for rule in rules:
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"        hint: {rule.hint}")
        if rule.exempt_paths:
            lines.append(f"        exempt: {', '.join(rule.exempt_paths)}")
    return "\n".join(lines)


def _selected_rules(select: Optional[str]) -> list[Rule]:
    if select is None:
        return list(ALL_RULES)
    wanted = {code.strip() for code in select.split(",") if code.strip()}
    known = {rule.code for rule in ALL_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rule for rule in ALL_RULES if rule.code in wanted]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "Project-specific static analysis: determinism, picklability, "
            "njit-safety, and ExecutionContext policy rules."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rules(ALL_RULES))
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (and --list-rules not set)", file=sys.stderr)
        return 2
    try:
        runner = LintRunner(_selected_rules(args.select))
        findings, files_checked = runner.lint_paths(args.paths)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings, files_checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
