"""The CAP reproduction's benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9_cold --seed 0 --seconds 15 --trace 0

Four workloads, each through public entry points with the engine
inline (``jobs=1``):

* ``fig9_cold``  regenerates Figures 8/9 (``cache_study.figure8_9``) at
  paper sizing; every pass has a fresh, empty result cache and a
  seeded, slightly perturbed ``n_refs``, so nothing is reused.
* ``fig10_cold`` does the same for Figures 10/11 (``queue_study.figure11``)
  with a perturbed ``n_instructions``.
* ``figs_warm``  regenerates Figures 8/9 and 11 from a result cache
  filled during set-up, with a fresh ``ExperimentEngine`` per pass.
* ``svc_mixed``  drives ``repro serve`` from two closed-loop clients:
  3/4 repeats of a primed popular set, 1/4 unique cold requests, across
  all four structures.

``--trace 1`` alternates traced and untraced stretches and reports the
per-layer metrics instead.  The last stdout line is the result object;
the line before it is the run record (git sha or source digest, seed,
``src/`` line count, host probe, measured seconds, output digests).
``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

WORKLOADS = ("fig9_cold", "fig10_cold", "figs_warm", "svc_mixed")

#: Host-speed reference: the probe loop's CPU time, in ms, that one
#: reference second stands for.  Timings are reported in reference
#: seconds (measured time x REF_PROBE_MS / probe time around it),
#: because a shared host's speed can swing several-fold within
#: minutes; see README.md.
REF_PROBE_MS = 6.5
#: Ops between two probes run at least this long (seconds of wall).
SEGMENT_S = 1.0
#: Inline work is probed every SAMPLE_S of CPU time, with a loop of
#: SAMPLE_N iterations that takes REF_SAMPLE_MS per reference second.
SAMPLE_S = 0.02
SAMPLE_N = 500
REF_SAMPLE_MS = REF_PROBE_MS * SAMPLE_N / 6000
#: Cold starts measured per run, spread over the timed phase.
SETUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# host probe and set-up samples
# ---------------------------------------------------------------------------


def _probe_loop(n: int = 6000) -> int:
    """List scans and moves, dict updates and heap traffic: the operation
    mix of the stack-distance and scheduler kernels.  A plain arithmetic
    loop tracked a shared host's slowdowns far worse (see README.md)."""
    stack = list(range(32))
    counts: dict[int, int] = {}
    heap: list[int] = []
    for i in range(n):
        x = (i * 7919) % 40
        try:
            del stack[stack.index(x)]
        except ValueError:
            stack.pop()
        stack.insert(0, x)
        counts[x] = counts.get(x, 0) + 1
        heapq.heappush(heap, (i * 31) % 97)
        if len(heap) > 16:
            heapq.heappop(heap)
    return len(counts)


def probe_ms() -> float:
    """CPU ms of a fixed pure-Python loop, median of three."""
    times = []
    for _ in range(3):
        start = time.thread_time()
        _probe_loop()
        times.append((time.thread_time() - start) * 1000.0)
    return statistics.median(times)


def steal_ticks() -> tuple[int, int]:
    """(stolen, all) CPU ticks of every CPU since boot, from /proc/stat,
    for the run record; (0, 0) where the kernel does not report them."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start_s(modules: tuple[str, ...]) -> float:
    """CPU seconds of a fresh interpreter importing ``modules`` and
    capturing the technology fingerprint (what every engine does)."""
    code = "; ".join(f"import {m}" for m in modules) + (
        "; from repro.engine.cache import technology_fingerprint"
        "; technology_fingerprint()"
    )
    before = _children_cpu_s()
    subprocess.run(
        [sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    return _children_cpu_s() - before


@dataclass
class Clock:
    """Host probes between segments of ops, and the conversion of
    measured time to reference seconds.

    Work is timed in CPU time where one process does it, which leaves
    out what the hypervisor steals; the probe's CPU time still moves
    with contention for caches and cores, and the reference second
    cancels that.  The service's latencies are wall time, scaled the
    same way.
    """

    probes: list[float] = field(default_factory=list)

    def probe(self) -> float:
        self.probes.append(probe_ms())
        return self.probes[-1]

    def run_factor(self) -> float:
        """Reference seconds per CPU second over the whole run."""
        return REF_PROBE_MS / statistics.mean(self.probes)

    def factor(self) -> float:
        """Reference seconds per measured second since the previous probe."""
        return REF_PROBE_MS / ((self.probes[-2] + self.probes[-1]) / 2.0)


class Sampler:
    """Reference seconds of inline work, probed inside long ops.

    SIGPROF fires after every :data:`SAMPLE_S` of CPU time.  The handler
    times a short probe in CPU time and converts the CPU time the work
    used since the previous sample into reference seconds at the speed
    just measured, so a 5 s pass is normalised by the host's speed
    during it, not only at its ends.  Probe time is counted in neither.
    """

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.samples = 0
        self._probe_ms = REF_SAMPLE_MS
        self._mark = time.thread_time()

    def _sample(self, signum: int, frame: object) -> None:
        used = time.thread_time() - self._mark
        start = time.thread_time()
        _probe_loop(SAMPLE_N)
        self._probe_ms = (time.thread_time() - start) * 1000.0
        self.ref_s += used * REF_SAMPLE_MS / self._probe_ms
        self.samples += 1
        self._mark = time.thread_time()

    def now(self) -> float:
        """Reference seconds of work so far (retries if a sample lands
        while it reads)."""
        while True:
            samples, ref_s, mark, probe = (
                self.samples, self.ref_s, self._mark, self._probe_ms)
            value = ref_s + (time.thread_time() - mark) * REF_SAMPLE_MS / probe
            if samples == self.samples:
                return value

    def __enter__(self) -> "Sampler":
        self._mark = time.thread_time()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


@dataclass
class Op:
    """One timed op: a figure pass or a service request.

    ``busy_s`` is the time the benchmark counts: CPU time of an inline
    pass, wall time of a request.
    """

    cells: int
    busy_s: float
    ok: bool
    traced: bool = False
    ref_s: float = 0.0
    wall_s: float = 0.0


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------


def _digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig8_9_digest(study) -> str:
    """Digest of the Figure 8/9 tables (selections plus every breakdown)."""
    return _digest({
        "conventional_boundary": study.conventional_boundary,
        "best_boundaries": study.best_boundaries,
        "tpi": [study.tpi.conventional, study.tpi.adaptive],
        "tpi_miss": [study.tpi_miss.conventional, study.tpi_miss.adaptive],
        "table": {
            app: {str(k): asdict(b) for k, b in row.items()}
            for app, row in study.table.items()
        },
    })


def fig10_11_digest(study) -> str:
    """Digest of the Figure 10/11 tables."""
    return _digest({
        "conventional_size": study.conventional_size,
        "best_sizes": study.best_sizes,
        "table": {
            app: {str(w): t for w, t in row.items()}
            for app, row in study.table.items()
        },
    })


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, one timed op, and the checks of one workload."""

    #: Modules a cold start of this workload imports.
    modules: tuple[str, ...] = ()
    #: Sweep cells one op answers.
    n_cells: int = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: list[str] = []
        #: Output digests checked against expected.json, for the record.
        self.digests: dict[str, str] = {}

    def prepare(self) -> None:
        """One-shot set-up before the timed phase."""

    def run(self, index: int) -> Any:
        """The timed part of op ``index``; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, index: int, result: Any) -> bool:
        """Verify op ``index`` (untimed); ``False`` marks it failed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`prepare` made."""

    def fail(self, message: str) -> bool:
        if len(self.errors) < 20:
            self.errors.append(message)
        return False

    def expect(self, name: str, digest: str, expected: str | None) -> bool:
        """Record a digest and compare it with the expected one, if any."""
        self.digests.setdefault(name, digest)
        if expected is not None and digest != expected:
            return self.fail(f"{name}: digest {digest[:12]} != expected {expected[:12]}")
        return True

    def seed_digest(self, name: str) -> str | None:
        return EXPECTED["seed_digests"].get(str(self.seed), {}).get(name)


class _ColdFigure(Workload):
    """A figure regenerated cold: empty result cache, perturbed sizing.

    Set-up runs one pass at paper sizing and checks the paper digest; it
    also pays the first pass's lazy imports, which no timed pass repeats.
    Timed pass 0 is checked against the seed's digest when one is
    recorded.
    """

    #: The figure's key under "paper" in expected.json.
    paper_key = ""
    #: Paper sizing, and the largest offset a later pass adds to it.
    base = 0
    spread = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Distinct offsets: no two passes share a cell key or a memo entry.
        self.offsets = random.Random(seed).sample(range(1, self.spread + 1), self.spread)

    def run(self, index: int) -> Any:
        from repro.engine import ExperimentEngine

        sizing = self.base if index < 0 else self.base + self.offsets[index]
        engine = ExperimentEngine(
            jobs=1, cache_dir=WORK / f"cold-{os.getpid()}-{index}"
        )
        return engine, self.figure(sizing, engine)

    def check(self, index: int, result: Any) -> bool:
        engine, study = result
        shutil.rmtree(engine.cache_dir, ignore_errors=True)
        stats = engine.stats
        ok = True
        if stats.cache_hits or stats.cache_misses != self.n_cells:
            ok = self.fail(
                f"pass {index}: {stats.cache_hits} cache hits, "
                f"{stats.cache_misses} misses; a cold pass computes every cell"
            )
        if not study.tpi.never_worse():
            ok = self.fail(f"pass {index}: adaptive TPI worse than conventional")
        if index < 0:
            ok &= self.expect("paper", self.digest(study), EXPECTED["paper"][self.paper_key])
        elif index == 0:
            ok &= self.expect("seed", self.digest(study), self.seed_digest(self.name))
        return ok

    def prepare(self) -> None:
        self.check(-1, self.run(-1))


class Fig9Cold(_ColdFigure):
    name = "fig9_cold"
    paper_key = "fig8_9"
    modules = ("repro.engine", "repro.experiments.cache_study")
    base = 60_000  # cache_study.DEFAULT_N_REFS
    spread = 1000
    n_cells = 21
    digest = staticmethod(fig8_9_digest)

    def figure(self, n_refs: int, engine: Any) -> Any:
        from repro.experiments.cache_study import figure8_9

        return figure8_9(n_refs=n_refs, engine=engine)


class Fig10Cold(_ColdFigure):
    name = "fig10_cold"
    paper_key = "fig10_11"
    modules = ("repro.engine", "repro.experiments.queue_study")
    base = 16_000  # queue_study.DEFAULT_N_INSTRUCTIONS
    spread = 160
    n_cells = 22
    digest = staticmethod(fig10_11_digest)

    def figure(self, n_instructions: int, engine: Any) -> Any:
        from repro.experiments.queue_study import figure11

        return figure11(n_instructions=n_instructions, engine=engine)


class FigsWarm(Workload):
    """Figures 8/9 and 11 served entirely from a filled result cache."""

    name = "figs_warm"
    modules = (
        "repro.engine", "repro.experiments.cache_study",
        "repro.experiments.queue_study",
    )
    n_cells = 21 + 22

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cache_dir = WORK / f"warm-{os.getpid()}"

    def run(self, index: int) -> Any:
        from repro.engine import ExperimentEngine
        from repro.experiments.cache_study import figure8_9
        from repro.experiments.queue_study import figure11

        engine = ExperimentEngine(jobs=1, cache_dir=self.cache_dir)
        return engine, (figure8_9(engine=engine), figure11(engine=engine))

    def digests_of(self, result: Any) -> tuple[str, str]:
        _, (s9, s11) = result
        return fig8_9_digest(s9), fig10_11_digest(s11)

    def prepare(self) -> None:
        result = self.run(-1)
        if result[0].stats.cache_misses != self.n_cells:
            self.fail("the fill pass found a non-empty result cache")
        self.first = self.digests_of(result)
        self.expect("paper_fig8_9", self.first[0], EXPECTED["paper"]["fig8_9"])
        self.expect("paper_fig10_11", self.first[1], EXPECTED["paper"]["fig10_11"])

    def check(self, index: int, result: Any) -> bool:
        stats = result[0].stats
        ok = True
        if stats.cache_hits != self.n_cells or stats.cache_misses:
            ok = self.fail(
                f"pass {index}: {stats.cache_misses} cells computed; "
                "a warm pass computes none"
            )
        if self.digests_of(result) != self.first:
            ok = self.fail(f"pass {index}: tables differ from the fill pass")
        return ok

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# -- the sweep service -------------------------------------------------------

#: Workloads the service traffic asks about.
APPS = ("compress", "li", "ijpeg", "perl", "vortex", "m88ksim",
                 "tomcatv", "swim")


def popular_requests() -> list[dict]:
    """The popular set: 32 small requests across all four structures,
    primed in set-up so that repeats are warm-store hits."""
    out: list[dict] = []
    for i, app in enumerate(APPS):
        out.append({"structure": "dcache", "workload": app,
                    "n_refs": 4096, "warmup_refs": 512})
        out.append({"structure": "iqueue", "workload": app,
                    "n_instructions": 2048})
        out.append({"structure": "tlb", "workload": app,
                    "n_refs": 4096, "warmup_refs": 512})
        out.append({"structure": "bpred", "workload": app,
                    "predictor": ("gshare", "bimodal")[i % 2],
                    "n_branches": 2048})
    return out


def cold_request(structure: str, app: str, serial: int) -> dict:
    """A small request whose sizing (and so cell key) is unique to ``serial``."""
    if structure in ("dcache", "tlb"):
        return {"structure": structure, "workload": app,
                "n_refs": 5000 + serial, "warmup_refs": 500}
    if structure == "iqueue":
        return {"structure": structure, "workload": app,
                "n_instructions": 2500 + serial}
    return {"structure": structure, "workload": app, "predictor": "gshare",
            "n_branches": 2500 + serial}


#: Each block of 16 requests holds 12 popular repeats and one cold
#: request per structure, in seeded order: every seed gets the same
#: mix, so the seed moves which requests run, not how much work they are.
BLOCK_POPULAR = 12
STRUCTURES = ("dcache", "iqueue", "tlb", "bpred")
CLIENTS = 2


def traffic(seed: int, client: int, popular: list[dict]) -> Iterator[tuple[dict, bool]]:
    """Client ``client``'s endless request stream: (request, is popular)."""
    rng = random.Random(f"{seed}:{client}")
    serial = 0
    while True:
        kinds = [True] * BLOCK_POPULAR + [False] * len(STRUCTURES)
        rng.shuffle(kinds)
        structures = rng.sample(STRUCTURES, len(STRUCTURES))
        for is_popular in kinds:
            if is_popular:
                yield rng.choice(popular), True
            else:
                serial += 1
                app = rng.choice(APPS)
                yield cold_request(structures.pop(), app, CLIENTS * serial + client), False


#: Answers of client 0 hashed into the per-seed digest.
SEED_DIGEST_REQUESTS = 16


def _answer(result: dict) -> str:
    """Canonical JSON of an answer without the asking tenant."""
    return json.dumps([result["best"], result["sweep"]], sort_keys=True)


def _scrape_totals(text: str) -> dict[str, float]:
    """Sum every sample of every family (labels collapsed)."""
    from repro.obs.promtext import parse_prometheus

    out: dict[str, float] = {}
    for family in parse_prometheus(text).values():
        for (sample, labels), value in family.samples.items():
            label_map = dict(labels)
            if sample.startswith("repro_service_request_seconds") and (
                label_map.get("path") not in ("/v1/optimize", "/v1/jobs/{id}")
            ):
                continue  # scrapes and health checks are not client ops
            if "le" in label_map:
                continue
            out[sample] = out.get(sample, 0.0) + value
    return out


@dataclass
class _Client:
    index: int
    requests: Iterator[tuple[dict, bool]]
    answers: list[str] = field(default_factory=list)
    cold_sent: list[dict] = field(default_factory=list)
    cold_answers: list[str] = field(default_factory=list)


class SvcMixed(Workload):
    """Two closed-loop clients against a ``repro serve`` subprocess."""

    name = "svc_mixed"
    modules = ("repro.cli", "repro.service", "repro.api")

    def __init__(self, seed: int, traced: bool) -> None:
        super().__init__(seed)
        self.traced = traced
        self.popular = popular_requests()
        self.clients = [
            _Client(c, traffic(seed, c, self.popular)) for c in range(CLIENTS)
        ]
        self.spans_path = WORK / f"spans-{os.getpid()}.jsonl"
        self.log_path = WORK / f"server-{os.getpid()}.log"
        self.cache_dir = WORK / f"svc-cache-{os.getpid()}"
        self.server: subprocess.Popen | None = None
        self.first_answer: dict[str, str] = {}
        self.peak_rss_mb = 0.0
        self.lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def boot(self) -> None:
        # Quotas far above two closed-loop clients: they never bind.
        flags = ["serve", "--port", "0", "--jobs", "1",
                 "--cache-dir", str(self.cache_dir),
                 "--quota-burst", "1000000", "--quota-rate", "1000000",
                 "--quota-inflight", "1000"]
        if self.traced:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    str(self.spans_path), *flags]
        else:
            argv = [sys.executable, "-m", "repro", *flags]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                argv, env=_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and self.server.poll() is None:
            first = self.log_path.read_text(encoding="utf-8").partition("\n")
            if first[1] and first[0].startswith("serving on "):
                self.url = first[0].split()[-1]
                return
            time.sleep(0.01)
        raise RuntimeError(
            f"server did not start: {self.log_path.read_text(encoding='utf-8')!r}"
        )

    def prepare(self) -> None:
        from repro.api import OptimizationRequest
        from repro.service.client import ServiceClient

        self.boot()
        client = ServiceClient(self.url)
        for doc in self.popular:
            status = client.submit(OptimizationRequest(tenant="prime", **doc), wait=True)
            if status.result is None or status.source != "computed":
                raise RuntimeError(f"priming {doc} answered {status.state}")

    def expected_answers(self) -> None:
        """The popular set's answers from ``repro.api.run_query`` in-process."""
        from repro.api import OptimizationRequest, run_query

        self.expected = {
            json.dumps(doc, sort_keys=True): _answer(
                run_query(OptimizationRequest(**doc)).to_dict()
            )
            for doc in self.popular
        }

    def toggle_tracing(self) -> None:
        assert self.server is not None
        self.server.send_signal(signal.SIGUSR1)
        time.sleep(0.05)  # let the server's main thread run the handler

    def scrape(self) -> dict[str, float]:
        from repro.service.client import ServiceClient

        return _scrape_totals(ServiceClient(self.url).metrics_text())

    def stop(self) -> None:
        if self.server is None:
            return
        try:
            with open(f"/proc/{self.server.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None

    def close(self) -> None:
        self.stop()
        self.spans_path.unlink(missing_ok=True)
        self.log_path.unlink(missing_ok=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    # -- traffic ----------------------------------------------------------

    def one_request(self, client: _Client, http) -> Op:
        from repro.api import JobState, OptimizationRequest
        from repro.errors import ReproError

        doc, popular = next(client.requests)
        request = OptimizationRequest(tenant=f"bench-{client.index}", **doc)
        start = time.perf_counter()
        try:
            status = http.submit(request, wait=True)
            while not status.state.is_terminal():
                time.sleep(0.005)
                status = http.job(status.job_id)
        except ReproError as exc:
            wall = time.perf_counter() - start
            return Op(1, wall, self.fail(f"{doc}: {type(exc).__name__}: {exc}"), wall_s=wall)
        wall = time.perf_counter() - start
        if status.state is not JobState.DONE or status.result is None:
            return Op(1, wall, self.fail(f"{doc}: job {status.state.value}: {status.error}"),
                      wall_s=wall)
        answer = _answer(status.result.to_dict())
        identity = json.dumps(doc, sort_keys=True)
        ok = True
        if popular:
            if status.source != "warm":
                ok = self.fail(f"popular {doc} answered from {status.source}, not warm")
            if answer != self.expected[identity]:
                ok = self.fail(f"popular {doc} differs from run_query")
        else:
            if status.source != "computed":
                ok = self.fail(f"cold {doc} answered from {status.source}")
            client.cold_sent.append(doc)
            client.cold_answers.append(answer)
        with self.lock:
            seen = identity in self.first_answer
            first = self.first_answer.setdefault(identity, answer)
        if seen and not popular:
            ok = self.fail(f"cold request {doc} repeated")
        if first != answer:
            ok = self.fail(f"repeat of {doc} is not byte-identical")
        if client.index == 0 and len(client.answers) < SEED_DIGEST_REQUESTS:
            client.answers.append(answer)
        return Op(1, wall, ok, wall_s=wall)

    def segment(self, seconds: float, traced: bool) -> Segment:
        """Both clients in closed loop until ``seconds`` have passed."""
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        deadline = start + seconds
        results: list[list[Op]] = [[] for _ in self.clients]

        def loop(client: _Client) -> None:
            http = ServiceClient(self.url)
            while time.perf_counter() < deadline:
                op = self.one_request(client, http)
                op.traced = traced
                results[client.index].append(op)

        threads = [threading.Thread(target=loop, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = [op for client_ops in results for op in client_ops]
        return Segment(ops, time.perf_counter() - start, traced, wall=True)

    def verify_cold(self, per_client: int = 3) -> None:
        """Recompute a few cold answers in-process and compare."""
        from repro.api import OptimizationRequest, run_query

        for client in self.clients:
            for doc, answer in list(zip(client.cold_sent, client.cold_answers))[:per_client]:
                if _answer(run_query(OptimizationRequest(**doc)).to_dict()) != answer:
                    self.fail(f"cold {doc} differs from run_query")
        answers = self.clients[0].answers
        if len(answers) == SEED_DIGEST_REQUESTS:
            self.expect("seed", _digest(answers), self.seed_digest(self.name))


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """Ops run between two probes; ``busy_s`` is the time they took:
    summed CPU time of inline passes, wall time of concurrent clients."""

    ops: list[Op]
    busy_s: float
    traced: bool
    #: Requests' wall latencies are normalised by the probes around the
    #: segment; inline ops arrive normalised by the :class:`Sampler`.
    wall: bool = False
    ref_s: float = 0.0


@dataclass
class Phase:
    segments: list[Segment] = field(default_factory=list)
    #: CPU seconds of each cold start.
    setup_s: list[float] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return [op for seg in self.segments for op in seg.ops]

    def throughput(self, traced: bool) -> float:
        """Cells answered correctly per reference second."""
        segs = [seg for seg in self.segments if seg.traced == traced]
        cells = sum(op.cells for seg in segs for op in seg.ops if op.ok)
        return cells / sum(seg.ref_s for seg in segs)


def timed_phase(
    wl: Workload, seconds: float, clock: Clock,
    run_segment: Callable[[int, bool], Segment], alternate: bool,
) -> Phase:
    """Segments of ops with a probe after each, and cold starts spread
    evenly over the phase (one before, the rest between segments)."""
    phase = Phase()
    phase.setup_s.append(cold_start_s(wl.modules))
    every = seconds / (SETUP_SAMPLES - 1)
    measured = 0.0
    segment = 0
    while measured < seconds or segment < (2 if alternate else 1):
        seg = run_segment(segment, alternate and segment % 2 == 1)
        clock.probe()
        if seg.wall:
            factor = clock.factor()
            seg.ref_s = seg.busy_s * factor
            for op in seg.ops:
                op.ref_s = op.busy_s * factor
        phase.segments.append(seg)
        measured += sum(op.wall_s for op in seg.ops) if not seg.wall else seg.busy_s
        segment += 1
        due = len(phase.setup_s) < SETUP_SAMPLES - 1
        if due and measured >= every * len(phase.setup_s):
            phase.setup_s.append(cold_start_s(wl.modules))
    while len(phase.setup_s) < SETUP_SAMPLES:
        phase.setup_s.append(cold_start_s(wl.modules))
    return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(
    phase: Phase, prep_ref_s: float, peak_rss_mb: float, run_factor: float,
) -> dict[str, float]:
    ops = [op for op in phase.ops if not op.traced]
    if any(seg.wall for seg in phase.segments):
        # Requests: percentiles of wall latency scaled by the run's mean
        # factor; one factor per one-second segment would spread the
        # tail with probe noise.
        factor = sum(op.ref_s for op in ops) / sum(op.busy_s for op in ops)
        lat_ms = [op.busy_s * factor * 1000.0 for op in ops]
    else:
        lat_ms = [op.ref_s * 1000.0 for op in ops]
    return {
        # Cold starts run in child processes, out of the sampler's
        # reach: they get the run's mean factor.
        "setup_s": statistics.median(phase.setup_s) * run_factor + prep_ref_s,
        "cells_per_s": phase.throughput(traced=False),
        "lat_p50_ms": percentile(lat_ms, 0.50),
        "lat_p95_ms": percentile(lat_ms, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }


SERVICE_METRICS = (
    "service.warm_hits", "service.singleflight_merged", "service.batches",
    "service.cells_per_batch", "service.queue_wait_ms", "service.request_ms",
    "service.quota_rejections", "service.http_errors", "service.client_gap_ms",
)


def per_layer(
    phase: Phase, totals, op_wall_s: float, counts: dict[str, float],
) -> dict[str, float]:
    """Shares of traced op wall time, work rates and counts per op."""
    from layers import LAYERS

    traced = [op for op in phase.ops if op.traced]
    n_ops = len(traced)
    # Reference seconds per span (wall) second over the traced ops, so
    # kernel rates read in the same units as the end-to-end metrics.
    factor = sum(op.ref_s for op in traced) / sum(op.wall_s for op in traced)

    def share(layer: str) -> float:
        return totals.self_s.get(layer, 0.0) / op_wall_s

    def rate(layer: str) -> float:
        busy = totals.self_s.get(layer, 0.0) * factor
        return totals.work.get(layer, 0) / busy / 1e6 if busy else 0.0

    out = {f"{layer}_share": share(layer) for layer in LAYERS}
    out["engine.map_self_share"] = out.pop("engine.map_share")
    out["cache.kernel_mrefs_per_s"] = rate("cache.kernel")
    out["ooo.kernel_minsts_per_s"] = rate("ooo.kernel")
    out["engine.cache_hits"] = totals.cache_hits / n_ops
    out["engine.cache_misses"] = totals.cache_misses / n_ops
    out.update({name: counts.get(name, 0.0) for name in SERVICE_METRICS})
    out["trace.coverage"] = counts.get("trace.coverage", 0.0)
    out["trace.overhead"] = phase.throughput(False) / phase.throughput(True)
    return out


def src_facts() -> dict[str, Any]:
    """Git sha when the checkout is a repository, plus a content digest
    and line count of ``src/`` that hold either way."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def run_inprocess(wl: Workload, seconds: float, trace: bool, clock: Clock):
    from layers import OP, SpanLog, install, op_wall_s, totals

    sampler = Sampler()
    with sampler:
        wl.prepare()
        prep_ref_s = sampler.now()
    clock.probe()

    log = SpanLog(enabled=False)
    uninstall = install(log) if trace else None
    run_op = log.wrap(OP, wl.run)
    index = 0

    def segment(_: int, traced: bool) -> Segment:
        nonlocal index
        ops: list[Op] = []
        seg_start = time.perf_counter()
        while not ops or time.perf_counter() - seg_start < SEGMENT_S:
            log.enabled = traced
            start, start_cpu, start_ref = (
                time.perf_counter(), time.thread_time(), sampler.now())
            try:
                result = run_op(index)
            except Exception as exc:  # noqa: BLE001 - a crashing pass is a failed op
                result = exc
            ref = sampler.now() - start_ref
            cpu = time.thread_time() - start_cpu
            wall = time.perf_counter() - start
            log.enabled = False
            if isinstance(result, Exception):
                ok = wl.fail(f"pass {index}: {type(result).__name__}: {result}")
            else:
                ok = wl.check(index, result)
            ops.append(Op(wl.n_cells, cpu, ok, traced, ref_s=ref, wall_s=wall))
            index += 1
        return Segment(ops, sum(op.busy_s for op in ops), traced,
                       ref_s=sum(op.ref_s for op in ops))

    try:
        with sampler:
            phase = timed_phase(wl, seconds, clock, segment, alternate=trace)
    finally:
        if uninstall is not None:
            uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts: dict[str, float] = {}
    layer_totals = op_wall = None
    if trace:
        layer_totals = totals(log)
        op_wall = op_wall_s(log)
        counts["trace.coverage"] = 1.0 - layer_totals.self_s.get(OP, 0.0) / op_wall
    return phase, prep_ref_s, peak, layer_totals, op_wall, counts


def run_service(wl: SvcMixed, seconds: float, trace: bool, clock: Clock):
    from layers import SpanLog, totals

    wl.prepare()
    clock.probe()
    # Boot and priming, in the server's own CPU time.
    prep_cpu_s = process_cpu_s(wl.server.pid)
    wl.expected_answers()
    seg_s = min(SEGMENT_S, max(0.25, seconds / 8))

    def segment(index: int, traced: bool) -> Segment:
        if trace and index > 0:
            wl.toggle_tracing()  # alternate: untraced, traced, untraced, ...
        return wl.segment(seg_s, traced)

    before = wl.scrape()
    phase = timed_phase(wl, seconds, clock, segment, alternate=trace)
    after = wl.scrape()
    wl.stop()
    wl.verify_cold()

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    n = len(phase.ops)
    client_s = sum(op.wall_s for op in phase.ops)
    server_s = delta("repro_service_request_seconds_sum")
    batches = delta("repro_service_batch_cells_count")
    waits = delta("repro_service_queue_wait_seconds_count")
    counts = {
        "service.warm_hits": delta("repro_service_warm_hits_total") / n,
        "service.singleflight_merged": delta("repro_service_singleflight_merged_total") / n,
        "service.batches": delta("repro_service_batches_total") / n,
        "service.cells_per_batch": (
            delta("repro_service_batch_cells_sum") / batches if batches else 0.0),
        "service.queue_wait_ms": (
            1000.0 * delta("repro_service_queue_wait_seconds_sum") / waits
            if waits else 0.0),
        "service.request_ms": 1000.0 * server_s / n,
        "service.quota_rejections": delta("repro_service_quota_rejections_total") / n,
        "service.http_errors": delta("repro_service_http_errors_total") / n,
        "service.client_gap_ms": 1000.0 * (client_s - server_s) / n,
        # The server's own request spans cover this much of what the
        # clients waited; the rest is connection and client time.
        "trace.coverage": server_s / client_s,
    }
    layer_totals = op_wall = None
    if trace:
        layer_totals = totals(SpanLog.load(str(wl.spans_path)))
        op_wall = sum(op.wall_s for op in phase.ops if op.traced)
    # One-shot work gets the run's mean factor: no probe ran inside it.
    prep_ref_s = prep_cpu_s * clock.run_factor()
    return phase, prep_ref_s, wl.peak_rss_mb, layer_totals, op_wall, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)

    clock = Clock()
    steal_start = steal_ticks()
    probe_start = clock.probe()
    trace = bool(args.trace)
    if args.workload == "svc_mixed":
        wl: Workload = SvcMixed(args.seed, traced=trace)
        runner = run_service
    else:
        wl = {"fig9_cold": Fig9Cold, "fig10_cold": Fig10Cold,
              "figs_warm": FigsWarm}[args.workload](args.seed)
        runner = run_inprocess
    try:
        phase, prep_ref_s, peak, layer_totals, op_wall, counts = runner(
            wl, args.seconds, trace, clock)
    finally:
        wl.close()
    probe_end = clock.probe()
    steal_end = steal_ticks()

    attempted = len(phase.ops)
    failed = sum(1 for op in phase.ops if not op.ok)
    correct = not wl.errors and failed == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        values = per_layer(phase, layer_totals, op_wall, counts)
        values["host.probe_ms"] = (probe_start + probe_end) / 2.0
        values["fail_ratio"] = failed / attempted
        metrics_spec = spec["per_layer"]
    else:
        values = end_to_end(phase, prep_ref_s, peak, clock.run_factor())
        metrics_spec = spec["end_to_end"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **src_facts(),
        "host.probe_ms": {"start": probe_start, "end": probe_end},
        "host.steal_share": (steal_end[0] - steal_start[0])
        / max(1, steal_end[1] - steal_start[1]),
        "ops": attempted, "failed": failed, "errors": wl.errors,
        "busy_s": sum(seg.busy_s for seg in phase.segments),
        "busy_ref_s": sum(seg.ref_s for seg in phase.segments),
        "setup_cpu_s": phase.setup_s, "prepare_ref_s": prep_ref_s,
        "digests": wl.digests,
        "lat_ms_deciles": [
            round(q, 4) for q in statistics.quantiles(
                [op.ref_s * 1000.0 for op in phase.ops], n=10)
        ] if attempted > 1 else [],
    }
    for m in metrics_spec:
        print(f"{m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics_spec
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
