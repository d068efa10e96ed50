"""Synthetic branch streams.

A stream mixes three static-branch populations, executed with Zipf
weighting (a few hot branches dominate, as in real codes):

* **biased** branches: taken with a fixed probability drawn near 0 or 1
  (loop back-edges, error checks) — any predictor gets these right;
* **patterned** branches: deterministic repeating outcome sequences
  (period 3-8) — correct with enough *history* and a table big enough
  to avoid aliasing, i.e. what gshare capacity buys;
* **noisy** branches: taken with probability near 0.5 — nobody
  predicts these, they only cause training noise and aliasing.

The per-application parameters derive from the suite: integer codes get
many static branches with a large patterned share; floating-point codes
few, heavily biased branches — which is why (as with the cache and
queue) some applications will favour a small, fast table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.profiles import BenchmarkProfile

#: Dynamic branch density (branches per instruction).
BRANCH_FRACTION: float = 0.18


@dataclass(frozen=True)
class BranchProfile:
    """Static-branch population of one application."""

    name: str
    n_static: int
    patterned_fraction: float
    noisy_fraction: float
    zipf_exponent: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_static < 4:
            raise WorkloadError("need at least four static branches")
        if not 0.0 <= self.patterned_fraction + self.noisy_fraction <= 1.0:
            raise WorkloadError("population fractions must sum to at most 1")
        if self.zipf_exponent <= 0:
            raise WorkloadError("zipf exponent must be positive")


#: Per-application branch populations.  Integer codes are branchy and
#: pattern-rich; floating-point codes are loop-dominated and biased.
_INTEGER = dict(n_static=600, patterned_fraction=0.45, noisy_fraction=0.06,
                zipf_exponent=1.3)
_FLOATING = dict(n_static=150, patterned_fraction=0.15, noisy_fraction=0.03,
                 zipf_exponent=1.5)
_OVERRIDES: dict[str, dict] = {
    # gcc's huge static footprint: aliasing punishes small tables hard
    "gcc": dict(n_static=2000, patterned_fraction=0.50, noisy_fraction=0.06,
                zipf_exponent=1.15),
    "go": dict(n_static=1600, patterned_fraction=0.40, noisy_fraction=0.15,
               zipf_exponent=1.15),
    # tiny, loop-dominated kernels: a small table already predicts well
    "swim": dict(n_static=60, patterned_fraction=0.05, noisy_fraction=0.01,
                 zipf_exponent=1.7),
    "tomcatv": dict(n_static=60, patterned_fraction=0.05, noisy_fraction=0.01,
                    zipf_exponent=1.7),
    "mgrid": dict(n_static=80, patterned_fraction=0.05, noisy_fraction=0.01,
                  zipf_exponent=1.7),
}


def branch_profile_for(profile: BenchmarkProfile) -> BranchProfile:
    """Derive the branch profile for one suite application."""
    params = _OVERRIDES.get(
        profile.name, _INTEGER if profile.domain == "integer" else _FLOATING
    )
    return BranchProfile(name=profile.name, seed=profile.seed + 9000, **params)


def generate_branch_trace(
    profile: BranchProfile, n_branches: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(pcs, outcomes)`` for ``profile``.

    Deterministic in the profile's seed.  The dynamic stream is
    *template structured*: execution walks repeating loop bodies
    (sequences of static branches), staying in one loop nest for many
    iterations before moving to the next — so the global history a
    gshare predictor sees is meaningful, as in real code, rather than
    noise.  Patterned branches use short periods (2 or 4) so that the
    number of distinct (pc, history) contexts scales with the loop-body
    length — the capacity pressure that makes table size matter.
    """
    if n_branches <= 0:
        raise WorkloadError(f"n_branches must be positive, got {n_branches}")
    rng = np.random.default_rng(profile.seed)
    n = profile.n_static

    # population assignment per static branch
    kinds = rng.random(n)
    patterned = kinds < profile.patterned_fraction
    noisy = (~patterned) & (
        kinds < profile.patterned_fraction + profile.noisy_fraction
    )
    bias = np.where(rng.random(n) < 0.5, rng.uniform(0.95, 0.995, n),
                    rng.uniform(0.005, 0.05, n))
    periods = rng.choice((2, 4), size=n)
    patterns = rng.random((n, 4)) < 0.6  # per-branch repeating sequence

    # Zipf-weighted loop bodies: execution repeats a hot loop body many
    # times, then moves to another
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -profile.zipf_exponent
    weights /= weights.sum()
    n_templates = 4
    body_len = max(8, n // 12)
    templates = [
        rng.choice(n, size=body_len, p=weights) for _ in range(n_templates)
    ]

    statics = np.empty(n_branches, dtype=np.int64)
    filled = 0
    while filled < n_branches:
        body = templates[int(rng.integers(0, n_templates))]
        repeats = int(rng.integers(10, 40))
        chunk = np.tile(body, repeats)[: n_branches - filled]
        statics[filled : filled + len(chunk)] = chunk
        filled += len(chunk)

    # each branch's occurrence number of its static branch drives the
    # pattern position: a stable sort groups every static branch's
    # executions in time order, so an execution's rank within its group
    # is how many times that branch ran before it
    order = np.argsort(statics, kind="stable")
    grouped = statics[order]
    occurrence = np.empty(n_branches, dtype=np.int64)
    occurrence[order] = np.arange(n_branches) - np.searchsorted(grouped, grouped)
    draws = rng.random(n_branches)
    outcomes = np.where(
        patterned[statics],
        patterns[statics, occurrence % periods[statics]],
        draws < np.where(noisy[statics], 0.5, bias[statics]),
    )

    # spread static branches across the address space so table indices
    # depend on the table size under test
    pcs = (statics * 2654435761) & 0xFFFFFFFF
    return pcs.astype(np.int64), outcomes
