"""Determinism rules: seeded RNGs (RPR001) and no wall-clock (RPR002).

Every result in this reproduction must be byte-identical across runs —
the resilience and robustness drills literally assert it.  Both rules
exist because the two ways determinism quietly dies are an unseeded
random draw and a wall-clock read feeding a decision.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, dotted_name
from repro.analysis.registry import register

#: numpy legacy global-RNG entry points (module-level state, seeded at
#: best once per process — never acceptable in a deterministic path).
_NUMPY_LEGACY = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "poisson",
        "binomial",
        "exponential",
        "bytes",
    }
)


class _ImportTracker:
    """Which local names are bound to which modules in one file."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: dict[str, str] = {}  # local name -> module
        self.from_imports: dict[str, tuple[str, str]] = {}  # local -> (mod, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.module_aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def binds_module(self, local: str, *modules: str) -> bool:
        """Whether ``local`` names one of ``modules`` (or a submodule)."""
        bound = self.module_aliases.get(local)
        if bound is None:
            return False
        return any(bound == m or bound.startswith(m + ".") for m in modules)

    def imported_from(self, local: str, module: str) -> str | None:
        """The original name if ``local`` came from ``module``."""
        entry = self.from_imports.get(local)
        if entry and entry[0] == module:
            return entry[1]
        return None


@register
class UnseededRandomRule(Rule):
    """RPR001: all randomness must flow through a seeded Generator."""

    rule_id = "RPR001"
    title = "unseeded or module-level RNG in a deterministic path"
    rationale = (
        "Same-seed runs must be byte-identical; stdlib `random` and "
        "numpy's legacy global RNG are process-level state that breaks "
        "that. Use np.random.default_rng(seed) with an explicit seed."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = _ImportTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib `random` imported; use a seeded "
                            "np.random.default_rng(seed) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "import from stdlib `random`; use a seeded "
                        "np.random.default_rng(seed) instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, imports: _ImportTracker
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        # np.random.<legacy>(...) — the seed-less module-level RNG.
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[-1] in _NUMPY_LEGACY
            and imports.binds_module(parts[0], "numpy")
        ):
            yield self.finding(
                ctx,
                node,
                f"numpy legacy global RNG `{name}`; use a seeded "
                "np.random.default_rng(seed) Generator",
            )
        # default_rng() with no explicit seed draws OS entropy.
        if parts[-1] == "default_rng":
            seedless = not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if seedless and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without an explicit seed is "
                    "nondeterministic; pass a seed",
                )


#: Wall-clock reads in the :mod:`time` module.
_TIME_WALL = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)

#: Wall-clock constructors on ``datetime`` / ``date``.
_DATETIME_WALL = frozenset({"now", "utcnow", "today"})


@register
class WallClockRule(Rule):
    """RPR002: no wall-clock reads outside the observability layer."""

    rule_id = "RPR002"
    title = "wall-clock read outside the observability allowlist"
    rationale = (
        "Simulated time is cycles and nanoseconds derived from the "
        "model, never the host clock. Wall time is only meaningful in "
        "the observability layer (tracing, metrics, timings), "
        "which is allowlisted per path in [tool.repro.lint]."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = _ImportTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[1] in _TIME_WALL
                and imports.binds_module(parts[0], "time")
            ):
                yield self.finding(
                    ctx, node, f"wall-clock read `{name}()` in a deterministic path"
                )
            elif (
                len(parts) == 1
                and imports.imported_from(parts[0], "time") in _TIME_WALL
            ):
                yield self.finding(
                    ctx, node, f"wall-clock read `{name}()` in a deterministic path"
                )
            elif parts[-1] in _DATETIME_WALL and (
                (len(parts) >= 2 and parts[-2] in ("datetime", "date"))
                and (
                    imports.binds_module(parts[0], "datetime")
                    or imports.imported_from(parts[0], "datetime") is not None
                )
            ):
                yield self.finding(
                    ctx, node, f"wall-clock read `{name}()` in a deterministic path"
                )
