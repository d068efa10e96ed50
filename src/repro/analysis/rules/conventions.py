"""Convention rules: exception discipline (RPR004, RPR005).

The library's error contract is that everything it deliberately raises
derives from :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
)
from repro.analysis.registry import register

#: Packages whose raises must use the typed hierarchy (the "core
#: paths": simulation state, adaptive structures, robustness).
_TYPED_RAISE_PREFIXES: tuple[str, ...] = (
    "repro.core",
    "repro.cache",
    "repro.ooo",
    "repro.robust",
)

#: Builtin exceptions that must not be raised on core paths.  The
#: deliberate omissions: NotImplementedError (abstract methods),
#: AssertionError (invariant checks), SystemExit/KeyboardInterrupt.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "RuntimeError",
        "ArithmeticError",
        "ZeroDivisionError",
        "FloatingPointError",
        "OverflowError",
        "OSError",
        "IOError",
        "AttributeError",
        "NameError",
        "StopIteration",
    }
)


@register
class BroadExceptRule(Rule):
    """RPR004: no bare or overbroad exception handlers in core paths."""

    rule_id = "RPR004"
    title = "bare `except:` or overbroad `except Exception` in a core path"
    rationale = (
        "A blanket handler around simulation code swallows the typed "
        "errors (and programming errors) the stack relies on to fail "
        "loudly. Infrastructure that must survive arbitrary worker "
        "failures (resilience) is allowlisted per path."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` swallows everything including "
                    "KeyboardInterrupt; catch a typed repro error",
                )
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for exc in caught:
                name = dotted_name(exc)
                if name in ("Exception", "BaseException"):
                    yield self.finding(
                        ctx,
                        node,
                        f"overbroad `except {name}`; catch a typed error "
                        "from repro.errors",
                    )


@register
class TypedRaiseRule(Rule):
    """RPR005: core paths raise typed errors from :mod:`repro.errors`."""

    rule_id = "RPR005"
    title = "builtin exception raised in core/cache/ooo/robust"
    rationale = (
        "Callers distinguish library failures from programming errors "
        "by catching ReproError. A ValueError or KeyError raised from "
        "a core path escapes that contract; repro.errors has (or can "
        "grow) a typed equivalent."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(
            ctx.module == p or ctx.module.startswith(p + ".")
            for p in _TYPED_RAISE_PREFIXES
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            terminal = name.rsplit(".", 1)[-1] if name else None
            if terminal in _BUILTIN_EXCEPTIONS:
                yield self.finding(
                    ctx,
                    node,
                    f"raise of builtin `{terminal}` in {ctx.module}; use a "
                    "typed error from repro.errors",
                )
