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

Both passes cache on disk keyed by file content hashes
(:mod:`repro.analysis.cache`), so a warm ``repro lint src`` re-parses
nothing.  ``--no-project`` / ``--no-cache`` opt out; ``--graph`` dumps
the resolved call graph as JSON instead of linting.
"""

from __future__ import annotations

import ast
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from repro.analysis import cache as cache_mod
from repro.analysis.cache import AnalysisCache
from repro.analysis.config import LintConfig, find_pyproject, load_config
from repro.analysis.core import FileContext, Finding, ProjectRule, Rule
from repro.analysis.project import ModuleSummary, ProjectContext, summarize, summary_from_json
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
    cache_hits: int = 0
    cache_misses: int = 0

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
    digest: str
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
    loaded = []
    for path in files:
        data = path.read_bytes()
        loaded.append(
            _LoadedFile(
                path=path,
                display=_display_path(path, root),
                digest=cache_mod.content_hash(data),
                source=data.decode("utf-8"),
            )
        )
    return loaded


def _findings_to_json(findings: Iterable[Finding]) -> list[dict[str, object]]:
    return [f.to_json() for f in findings]


def _findings_from_json(payload: Iterable[dict[str, object]]) -> list[Finding]:
    return [
        Finding(
            path=str(f["path"]),
            line=int(f["line"]),  # type: ignore[arg-type]
            col=int(f["col"]),  # type: ignore[arg-type]
            rule_id=str(f["rule"]),
            message=str(f["message"]),
        )
        for f in payload
    ]


def _open_cache(
    config: LintConfig, use_cache: bool, cache_dir: str | Path | None
) -> AnalysisCache | None:
    if not use_cache:
        return None
    if cache_dir is not None:
        return AnalysisCache(Path(cache_dir))
    if config.root is not None:
        return AnalysisCache(config.root / cache_mod.CACHE_DIR_NAME)
    return None  # no stable anchor for a cache directory


def _file_pass(
    loaded: list[_LoadedFile],
    rules: list[Rule],
    config: LintConfig,
    cache: AnalysisCache | None,
    fingerprint: str,
    result: LintResult,
) -> None:
    rule_ids = [rule.rule_id for rule in rules]
    for entry in loaded:
        result.files_checked += 1
        key = cache_mod.file_key(entry.display, entry.digest, rule_ids, fingerprint)
        if cache is not None:
            payload = cache.get(key)
            if payload is not None:
                result.findings.extend(_findings_from_json(payload["findings"]))
                result.suppressed.extend(_findings_from_json(payload["suppressed"]))
                continue
        found: list[Finding] = []
        waived: list[Finding] = []
        ctx = entry.parse(config.root)
        if ctx is None:
            exc = entry.error
            assert exc is not None
            found.append(
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
                        waived.append(finding)
                    else:
                        found.append(finding)
        if cache is not None:
            cache.put(
                key,
                {
                    "findings": _findings_to_json(found),
                    "suppressed": _findings_to_json(waived),
                },
            )
        result.findings.extend(found)
        result.suppressed.extend(waived)


def _build_project(
    loaded: list[_LoadedFile],
    config: LintConfig,
    cache: AnalysisCache | None,
) -> ProjectContext:
    """Summaries for every parseable file, served from cache when warm."""
    project = ProjectContext()
    for entry in loaded:
        summary: ModuleSummary | None = None
        key = cache_mod.summary_key(entry.display, entry.digest)
        if cache is not None:
            payload = cache.get(key)
            if payload is not None:
                summary = summary_from_json(payload)
        if summary is None:
            ctx = entry.parse(config.root)
            if ctx is None:
                continue  # RPR000 already reported by the file pass
            summary = summarize(ctx)
            if cache is not None:
                cache.put(key, summary.to_json())
        project.modules[summary.module] = summary
    return project


def _project_pass(
    loaded: list[_LoadedFile],
    rules: list[ProjectRule],
    config: LintConfig,
    cache: AnalysisCache | None,
    fingerprint: str,
    result: LintResult,
) -> None:
    rule_ids = [rule.rule_id for rule in rules]
    hashes = {entry.display: entry.digest for entry in loaded}
    key = cache_mod.project_key(hashes, rule_ids, fingerprint)
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            result.findings.extend(_findings_from_json(payload["findings"]))
            result.suppressed.extend(_findings_from_json(payload["suppressed"]))
            return
    project = _build_project(loaded, config, cache)
    by_path = {s.display_path: s for s in project.modules.values()}
    found: list[Finding] = []
    waived: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            if rule.rule_id in config.ignored_for(finding.path):
                continue
            summary = by_path.get(finding.path)
            if summary is not None and summary.suppressed_on(
                finding.line, finding.rule_id
            ):
                waived.append(finding)
            else:
                found.append(finding)
    if cache is not None:
        cache.put(
            key,
            {
                "findings": _findings_to_json(found),
                "suppressed": _findings_to_json(waived),
            },
        )
    result.findings.extend(found)
    result.suppressed.extend(waived)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    config: LintConfig | None = None,
    project: bool = True,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> LintResult:
    """Lint files/directories and return the full result.

    ``config=None`` discovers pyproject.toml upward from the first
    path; ``select`` (CLI ``--select``) overrides the config's rule
    selection.  Suppressed findings are retained on
    :attr:`LintResult.suppressed` so tooling can audit waivers.

    ``project=False`` skips the cross-module pass.  Caching needs an
    anchor directory: the config root (``.repro-lint-cache/`` beside
    pyproject.toml) or an explicit ``cache_dir``; with neither, the
    run is simply cold.
    """
    started = time.perf_counter()
    files = iter_python_files(paths)
    if config is None:
        pyproject = find_pyproject(Path(files[0]).parent if files else Path.cwd())
        config = load_config(pyproject)
    rules = _resolve_rules(select, config)
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    cache = _open_cache(config, use_cache, cache_dir)
    fingerprint = cache_mod.config_fingerprint(config)
    result = LintResult(rule_ids=tuple(rule.rule_id for rule in rules))

    loaded = _load_files(files, config.root)
    file_started = time.perf_counter()
    _file_pass(loaded, file_rules, config, cache, fingerprint, result)
    project_started = time.perf_counter()
    if project and project_rules:
        _project_pass(loaded, project_rules, config, cache, fingerprint, result)
    finished = time.perf_counter()

    result.findings.sort()
    result.suppressed.sort()
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
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
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> dict[str, object]:
    """The resolved call graph for ``repro lint --graph``."""
    files = iter_python_files(paths)
    if config is None:
        pyproject = find_pyproject(Path(files[0]).parent if files else Path.cwd())
        config = load_config(pyproject)
    cache = _open_cache(config, use_cache, cache_dir)
    loaded = _load_files(files, config.root)
    project = _build_project(loaded, config, cache)
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
            "version": 2,
            "files_checked": result.files_checked,
            "rules": list(result.rule_ids),
            "findings": [finding.to_json() for finding in result.findings],
            "suppressed": [finding.to_json() for finding in result.suppressed],
            "timings": {k: round(v, 6) for k, v in result.timings.items()},
            "cache": {
                "hits": result.cache_hits,
                "misses": result.cache_misses,
            },
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
    project: bool = True,
    use_cache: bool = True,
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
            dump = build_graph_json(paths, use_cache=use_cache)
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(json.dumps(dump, indent=2, sort_keys=True), file=out)
        return EXIT_CLEAN
    try:
        result = lint_paths(paths, select=select, project=project, use_cache=use_cache)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if output_format == "json":
        print(render_json(result), file=out)
    else:
        print(render_human(result), file=out)
    return result.exit_code()
