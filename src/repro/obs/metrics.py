"""Process-wide metrics: counters, gauges, histograms.

The instrumented stack counts what it does — reconfigurations, probe
vs. exploit steps, engine cache hits and misses, per-interval TPI —
into one shared :class:`MetricsRegistry`.  Unlike tracing, metrics are
always on: incrementing a counter is a couple of dictionary operations,
and having the counters exist unconditionally is what makes
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.diff` usable
for before/after comparisons (across two code revisions, or around a
single call in a test).

Export is Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`), because it is a stable,
greppable, zero-dependency interchange format — not because a scraper
is assumed.

Metric names follow Prometheus conventions: ``repro_`` prefix,
``_total`` suffix on counters, base units in the name (``_ns``,
``_seconds``).  The catalog of names the stack emits is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ObservabilityError

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets (geometric, wide enough for both
#: sub-nanosecond TPI values and multi-second wall times).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 100.0, 1000.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape one label value per the text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping; everything else passes through verbatim.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(key: LabelKey) -> str:
    if not key:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
        + "}"
    )


class _Metric:
    """Shared name/help/type bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def collect(self) -> dict[LabelKey, float]:
        return dict(self._values)


class Gauge(_Metric):
    """Last-written value, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def collect(self) -> dict[LabelKey, float]:
        return dict(self._values)


class Histogram(_Metric):
    """Cumulative-bucket histogram with sum and count."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ObservabilityError(f"histogram {name} needs at least one bucket")
        self._data: dict[LabelKey, dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def labels(self, **labels: Any) -> Callable[[float], None]:
        """``observe`` bound to one label set, whose key is built once."""
        return partial(self._observe, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        series = self._data.get(key)
        if series is None:
            series = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._data[key] = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series["counts"][i] += 1
        series["sum"] += float(value)
        series["count"] += 1

    def value(self, **labels: Any) -> dict[str, Any]:
        series = self._data.get(_label_key(labels))
        if series is None:
            return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
        return {"counts": list(series["counts"]), "sum": series["sum"],
                "count": series["count"]}

    def collect(self) -> dict[LabelKey, dict[str, Any]]:
        return {
            key: {"counts": list(s["counts"]), "sum": s["sum"], "count": s["count"]}
            for key, s in self._data.items()
        }


class MetricsRegistry:
    """Create-or-get store of named metrics, with snapshot/diff/export."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, creating it on first use."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, creating it on first use."""
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``, creating it on first use."""
        return self._get(Histogram, name, help, buckets=buckets)

    def reset(self) -> None:
        """Drop every metric (tests; never called by instrumentation)."""
        self._metrics.clear()

    # -- snapshot / diff --------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able copy of every metric's current state."""
        out: dict[str, dict] = {}
        for name, metric in sorted(self._metrics.items()):
            values = {
                "|".join(f"{k}={v}" for k, v in key) or "": value
                for key, value in metric.collect().items()
            }
            out[name] = {"type": metric.kind, "help": metric.help, "values": values}
        return out

    @staticmethod
    def diff(before: Mapping[str, dict], after: Mapping[str, dict]) -> dict[str, dict]:
        """What changed between two snapshots.

        Counters and histograms report deltas (new label sets count from
        zero); gauges report their ``after`` value.  Metrics whose state
        did not move are omitted, which makes the diff of two snapshots
        around a quiet region empty.
        """
        out: dict[str, dict] = {}
        for name, entry in after.items():
            kind = entry["type"]
            values: dict[str, Any] = {}
            old = before.get(name, {}).get("values", {})
            for label, value in entry["values"].items():
                if kind == "counter":
                    delta = value - old.get(label, 0.0)
                    if delta:
                        values[label] = delta
                elif kind == "gauge":
                    if label not in old or old[label] != value:
                        values[label] = value
                else:  # histogram
                    prev = old.get(label, {"count": 0, "sum": 0.0})
                    delta_n = value["count"] - prev["count"]
                    if delta_n:
                        values[label] = {
                            "count": delta_n,
                            "sum": value["sum"] - prev["sum"],
                        }
            if values:
                out[name] = {"type": kind, "values": values}
        return out

    # -- Prometheus text export -------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, series in sorted(metric.collect().items()):
                    cumulative = 0
                    for bound, count in zip(metric.buckets, series["counts"]):
                        cumulative = count
                        bucket_key = key + (("le", f"{bound:g}"),)
                        lines.append(
                            f"{name}_bucket{_label_text(bucket_key)} {cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{name}_bucket{_label_text(inf_key)} {series['count']}")
                    lines.append(f"{name}_sum{_label_text(key)} {series['sum']:g}")
                    lines.append(f"{name}_count{_label_text(key)} {series['count']}")
            else:
                for key, value in sorted(metric.collect().items()):
                    lines.append(f"{name}{_label_text(key)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str | Path) -> Path:
        """Write :meth:`to_prometheus` output to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus(), encoding="utf-8")
        return path


_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry all instrumentation writes to."""
    return _REGISTRY
