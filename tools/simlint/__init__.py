"""simlint — determinism & layering static analysis for the simulator.

Public API::

    from tools.simlint import RULES, lint_source, lint_paths, main

``lint_source(source, path, rules, module=...)`` lints one buffer (the
``module`` override lets tests exercise package-scoped rules on fixtures);
``lint_paths([Path(...)], rules)`` walks trees; ``main(argv)`` is the CLI
behind ``python -m tools.simlint``.
"""

from .cli import list_rules, main
from .core import (
    SEVERITIES,
    FileContext,
    Finding,
    Rule,
    Suppression,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from .rules import FORBIDDEN_IMPORTS, RULES, RULES_BY_ID

__all__ = [
    "SEVERITIES",
    "FileContext",
    "Finding",
    "FORBIDDEN_IMPORTS",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "Suppression",
    "lint_paths",
    "lint_source",
    "list_rules",
    "main",
    "parse_suppressions",
]
