"""Domain-aware static analysis for the reproduction (``repro lint``).

The reproduction's correctness rests on invariants the interpreter
never checks: every nanosecond/cycle quantity must stay in its unit
(the paper's TPI = cycle time [ns] / IPC), every RNG must be seeded so
decision traces stay byte-identical, and errors/spans/metrics must
follow the conventions the library established.  This package enforces
those invariants statically, at CI time, instead of letting them
surface as NaN-poisoning bugs mid-sweep.

Layout:

``core``
    :class:`Finding`, :class:`FileContext`, the :class:`Rule` base
    class and shared AST helpers.
``registry``
    The rule registry: :func:`register`, :func:`all_rules`.
``suppress``
    ``# repro: noqa[RULE-ID]`` line suppressions.
``config``
    ``[tool.repro.lint]`` pyproject configuration (rule selection and
    per-path allowlists).
``runner``
    File walking, the per-file and whole-project passes, human/JSON
    rendering and the ``repro lint`` entry point with stable exit
    codes (:data:`EXIT_CLEAN` / :data:`EXIT_FINDINGS` /
    :data:`EXIT_ERROR`).  Every run reads the tree it is given; no
    result is kept between runs.
``project``
    Multi-file parsing into :class:`ModuleSummary` objects — imports,
    classes with attribute types, functions with call sites.
``callgraph``
    Best-effort intra-package call resolution (re-exports, ``self``
    attribution, typed locals) and async reachability.
``rules``
    The domain rules, RPR001..RPR012 (see ``docs/static-analysis.md``
    for the catalog).
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, load_config
from repro.analysis.callgraph import CallGraph
from repro.analysis.core import FileContext, Finding, ProjectRule, Rule
from repro.analysis.project import ModuleSummary, ProjectContext, summarize
from repro.analysis.registry import all_rules, get_rule, register, rule_ids
from repro.analysis.runner import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    LintResult,
    build_graph_json,
    lint_paths,
    main,
    render_human,
    render_json,
)

# Importing the rules package registers every built-in rule.
from repro.analysis import rules as _rules  # noqa: F401  (import side effect)

__all__ = [
    "CallGraph",
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_graph_json",
    "get_rule",
    "lint_paths",
    "load_config",
    "main",
    "register",
    "render_human",
    "render_json",
    "rule_ids",
    "summarize",
]
