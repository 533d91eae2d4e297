"""simlint command line: ``python -m tools.simlint``.

Exit codes (CI contract):

* ``0`` — no findings at or above the severity threshold
* ``1`` — findings to fix (or suppress with a justification)
* ``2`` — usage error, unreadable input, or syntax error in a target
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core import SEVERITIES, Finding, Rule, lint_paths
from .rules import RULES, RULES_BY_ID


def _split_ids(raw: Optional[str], parser: argparse.ArgumentParser,
               flag: str) -> Optional[List[str]]:
    if raw is None:
        return None
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    unknown = [i for i in ids if i not in RULES_BY_ID]
    if unknown:
        parser.error(
            f"{flag}: unknown rule id(s) {', '.join(unknown)} "
            f"(see --list-rules)"
        )
    return ids


def _selected_rules(select: Optional[List[str]],
                    ignore: Optional[List[str]]) -> List[Rule]:
    rules = list(RULES)
    if select is not None:
        rules = [rule for rule in rules if rule.id in select]
    if ignore is not None:
        rules = [rule for rule in rules if rule.id not in ignore]
    return rules


def list_rules() -> str:
    width = max(len(rule.id) for rule in RULES)
    lines = []
    for rule in RULES:
        lines.append(f"{rule.id:<{width}}  [{rule.severity}] {rule.summary}")
        lines.append(f"{'':<{width}}  {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # stdout consumer (e.g. `... | head`) went away mid-report; the
        # findings that mattered to it were delivered.
        return 0


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="determinism/layering static analysis for the NeuMMU "
                    "simulator (see README 'Static analysis')",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rules",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULE[,RULE...]",
        help="skip these rules",
    )
    parser.add_argument(
        "--severity-threshold", choices=SEVERITIES, default="warning",
        help="findings at or above this severity fail the run "
             "(default: warning, i.e. any finding fails)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    rules = _selected_rules(
        _split_ids(args.select, parser, "--select"),
        _split_ids(args.ignore, parser, "--ignore"),
    )
    paths = list(args.paths)
    if not paths:
        # Default: the src/ tree next to the repo root this tool lives in.
        paths = [Path(__file__).resolve().parents[2] / "src"]

    findings, errors = lint_paths(paths, rules)
    for error in errors:
        print(f"simlint: error: {error}", file=sys.stderr)
    for finding in sorted(findings,
                          key=lambda f: (f.path, f.line, f.col, f.rule)):
        print(finding.render())

    threshold = SEVERITIES.index(args.severity_threshold)
    failing = [f for f in findings if SEVERITIES.index(f.severity) >= threshold]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    if findings:
        print(f"simlint: {len(findings)} finding(s) "
              f"({n_err} error, {n_warn} warning)")
    if errors:
        return 2
    return 1 if failing else 0
