"""Run the rules over files and render the result.

Exit codes are stable and documented (scripts and CI depend on them):

==============  =====================================================
:data:`EXIT_CLEAN` (0)     no unsuppressed findings
:data:`EXIT_FINDINGS` (1)  at least one unsuppressed finding
:data:`EXIT_ERROR` (2)     the linter itself could not run (bad
                           arguments, malformed config, unknown rule)
==============  =====================================================

A target file that fails to parse is reported as an ``RPR000`` finding
at the syntax-error location (exit 1, not 2): one broken file must not
hide findings in the rest of the tree.

Two passes run per invocation:

1. the **file pass** — the PR 5 single-file rules, one
   :class:`FileContext` at a time, unchanged and still cheap;
2. the **project pass** — :class:`~repro.analysis.core.ProjectRule`
   subclasses (RPR009–RPR012) over the module summaries and call graph
   of *every* linted file (:mod:`repro.analysis.project` /
   :mod:`repro.analysis.callgraph`).

Every run reads and parses the files it is given; no result is kept
between runs.  ``--graph`` dumps the resolved call graph as JSON
instead of linting.
"""

from __future__ import annotations

import ast
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from repro.analysis.config import LintConfig, find_pyproject, load_config
from repro.analysis.core import FileContext, Finding, ProjectRule, Rule
from repro.analysis.project import ProjectContext, summarize
from repro.analysis.registry import all_rules, get_rule
from repro.analysis.suppress import is_suppressed
from repro.errors import AnalysisError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Pseudo-rule id for files the parser rejects.
PARSE_RULE_ID = "RPR000"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rule_ids: tuple[str, ...] = ()
    #: Wall-clock per phase: ``total_s``, ``file_pass_s``, ``project_pass_s``.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Whether the run found nothing unsuppressed."""
        return not self.findings

    def exit_code(self) -> int:
        """The process exit code this result maps to."""
        return EXIT_CLEAN if self.clean else EXIT_FINDINGS


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.is_file():
            out.add(path)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(out)


def _display_path(path: Path, root: Path | None) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _module_name(display_path: str) -> str:
    parts = Path(display_path).with_suffix("").parts
    if "repro" in parts:  # src/repro/core/clock.py -> repro.core.clock
        parts = parts[parts.index("repro"):]
    name = ".".join(parts)
    return name.removesuffix(".__init__")


def make_context(
    path: Path, root: Path | None = None, source: str | None = None
) -> FileContext:
    """Parse one file into the context rules consume.

    Raises :class:`SyntaxError` for unparseable sources; the caller
    turns that into a :data:`PARSE_RULE_ID` finding.
    """
    if source is None:
        source = path.read_text(encoding="utf-8")
    display = _display_path(path, root)
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        display_path=display,
        path=path,
        source=source,
        tree=tree,
        module=_module_name(display),
    )


def _discover_config(files: list[Path], config: LintConfig | None) -> LintConfig:
    """``config``, or the pyproject.toml found upward from the first file."""
    if config is not None:
        return config
    return load_config(find_pyproject(files[0].parent if files else Path.cwd()))


def _resolve_rules(select: Iterable[str] | None, config: LintConfig) -> list[Rule]:
    wanted = frozenset(select) if select is not None else config.select
    if not wanted:
        return [cls() for cls in all_rules()]
    return [get_rule(rule_id)() for rule_id in sorted(wanted)]


@dataclass
class _LoadedFile:
    """One target file: bytes read once, parsed at most once."""

    path: Path
    display: str
    source: str
    ctx: FileContext | None = None
    error: SyntaxError | None = None

    def parse(self, root: Path | None) -> FileContext | None:
        """The parsed context, or ``None`` if the file does not parse."""
        if self.ctx is None and self.error is None:
            try:
                self.ctx = make_context(self.path, root, self.source)
            except SyntaxError as exc:
                self.error = exc
        return self.ctx


def _load_files(files: list[Path], root: Path | None) -> list[_LoadedFile]:
    return [
        _LoadedFile(
            path=path,
            display=_display_path(path, root),
            source=path.read_bytes().decode("utf-8"),
        )
        for path in files
    ]


def _file_pass(
    loaded: list[_LoadedFile],
    rules: list[Rule],
    config: LintConfig,
    result: LintResult,
) -> None:
    for entry in loaded:
        result.files_checked += 1
        ctx = entry.parse(config.root)
        if ctx is None:
            exc = entry.error
            assert exc is not None
            result.findings.append(
                Finding(
                    path=entry.display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule_id=PARSE_RULE_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            )
        else:
            ignored = config.ignored_for(ctx.display_path)
            for rule in rules:
                if rule.rule_id in ignored:
                    continue
                for finding in rule.check(ctx):
                    if is_suppressed(ctx.line_at(finding.line), finding.rule_id):
                        result.suppressed.append(finding)
                    else:
                        result.findings.append(finding)


def _build_project(loaded: list[_LoadedFile], config: LintConfig) -> ProjectContext:
    """Summaries for every parseable file."""
    project = ProjectContext()
    for entry in loaded:
        ctx = entry.parse(config.root)
        if ctx is None:
            continue  # RPR000 already reported by the file pass
        summary = summarize(ctx)
        project.modules[summary.module] = summary
    return project


def _project_pass(
    loaded: list[_LoadedFile],
    rules: list[ProjectRule],
    config: LintConfig,
    result: LintResult,
) -> None:
    project = _build_project(loaded, config)
    by_path = {s.display_path: s for s in project.modules.values()}
    for rule in rules:
        for finding in rule.check_project(project):
            if rule.rule_id in config.ignored_for(finding.path):
                continue
            summary = by_path.get(finding.path)
            if summary is not None and summary.suppressed_on(
                finding.line, finding.rule_id
            ):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    config: LintConfig | None = None,
) -> LintResult:
    """Lint files/directories and return the full result.

    ``config=None`` discovers pyproject.toml upward from the first
    path; ``select`` (CLI ``--select``) overrides the config's rule
    selection.  Suppressed findings are retained on
    :attr:`LintResult.suppressed` so tooling can audit waivers.
    """
    started = time.perf_counter()
    files = iter_python_files(paths)
    config = _discover_config(files, config)
    rules = _resolve_rules(select, config)
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    result = LintResult(rule_ids=tuple(rule.rule_id for rule in rules))

    loaded = _load_files(files, config.root)
    file_started = time.perf_counter()
    _file_pass(loaded, file_rules, config, result)
    project_started = time.perf_counter()
    if project_rules:
        _project_pass(loaded, project_rules, config, result)
    finished = time.perf_counter()

    result.findings.sort()
    result.suppressed.sort()
    result.timings = {
        "total_s": finished - started,
        "file_pass_s": project_started - file_started,
        "project_pass_s": finished - project_started,
    }
    return result


def build_graph_json(
    paths: Sequence[str | Path],
    *,
    config: LintConfig | None = None,
) -> dict[str, object]:
    """The resolved call graph for ``repro lint --graph``."""
    files = iter_python_files(paths)
    config = _discover_config(files, config)
    project = _build_project(_load_files(files, config.root), config)
    return project.graph.to_json()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_human(result: LintResult) -> str:
    """Editor-clickable one-line-per-finding report plus a summary."""
    lines = [finding.format_human() for finding in result.findings]
    noun = "file" if result.files_checked == 1 else "files"
    summary = (
        f"{len(result.findings)} finding(s), {len(result.suppressed)} "
        f"suppressed; {result.files_checked} {noun} checked, "
        f"{len(result.rule_ids)} rule(s) active"
    )
    lines.append(summary if lines else f"clean: {summary}")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, version-tagged)."""
    return json.dumps(
        {
            "version": 3,
            "files_checked": result.files_checked,
            "rules": list(result.rule_ids),
            "findings": [finding.to_json() for finding in result.findings],
            "suppressed": [finding.to_json() for finding in result.suppressed],
            "timings": {k: round(v, 6) for k, v in result.timings.items()},
        },
        indent=2,
        sort_keys=True,
    )


def render_rule_list() -> str:
    """The rule catalog for ``repro lint --list-rules``."""
    lines = []
    for cls in all_rules():
        lines.append(f"{cls.rule_id}  {cls.title}")
        if cls.rationale:
            lines.append(f"        {cls.rationale}")
    return "\n".join(lines)


def main(
    paths: Sequence[str],
    *,
    output_format: str = "human",
    select: Sequence[str] | None = None,
    list_rules: bool = False,
    graph: bool = False,
    stream: IO[str] | None = None,
) -> int:
    """``repro lint`` entry point; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    if list_rules:
        print(render_rule_list(), file=out)
        return EXIT_CLEAN
    if not paths:
        print("error: no paths to lint", file=sys.stderr)
        return EXIT_ERROR
    if graph:
        try:
            dump = build_graph_json(paths)
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(json.dumps(dump, indent=2, sort_keys=True), file=out)
        return EXIT_CLEAN
    try:
        result = lint_paths(paths, select=select)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if output_format == "json":
        print(render_json(result), file=out)
    else:
        print(render_human(result), file=out)
    return result.exit_code()
