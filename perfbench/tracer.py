"""Layer spans taken from outside lqhv, by wrapping its module bindings.

`Tracer.install()` replaces each binding in BINDINGS with a wrapper that
records a span (name, start, end, parent span, job id) and calls the
original; `uninstall()` puts every original back. Spans sit only at layer
boundaries, never around inner helpers, and are held in memory until the
run writes them out. The library source is not touched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name). The `lqhv.cli` bindings are the calls a
# command makes; the others are the inner bindings the library calls
# through, so nested work (the check inside extract or lhv, the JSON
# load inside a loader) gets a span of its own.
BINDINGS = (
    ("lqhv.cli", "load_family", "io.load_family"),
    ("lqhv.cli", "load_quantum", "io.load_quantum"),
    ("lqhv.cli", "check_nonsignaling", "scenario.check"),
    ("lqhv.cli", "extract_marginal_family", "scenario.extract"),
    ("lqhv.cli", "build_deterministic_measure", "construct.build"),
    ("lqhv.cli", "verify_marginals", "construct.verify"),
    ("lqhv.cli", "jordan_decompose", "construct.jordan"),
    ("lqhv.cli", "lhv_feasible", "lp.lhv"),
    ("lqhv.cli", "born_family", "quantum.born"),
    ("lqhv.cli", "save_measure", "io.export"),
    ("lqhv.cli", "save_verdict", "io.export"),
    ("lqhv.cli", "save_family", "io.export"),
    ("lqhv.io", "load_json", "io.load"),
    ("lqhv.io", "family_from_json", "io.parse"),
    ("lqhv.io", "DistributionFamily", "scenario.validate"),
    ("lqhv.io", "measure_to_json", "io.export"),
    ("lqhv.io", "dump_json", "io.export"),
    ("lqhv.scenario", "check_nonsignaling", "scenario.check"),
    ("lqhv.lp", "check_nonsignaling", "scenario.check"),
    ("lqhv.lp", "marginal_matrix", "lp.assemble"),
)

ROOT = "cli.main"

# Each span's self time goes to exactly one layer metric, so the metrics
# add up to the traced job time.
SELF_METRIC = {
    ROOT: "cli.self_s",
    "io.load": "io.load_s",
    "io.load_family": "io.parse_s",
    "io.load_quantum": "io.parse_s",
    "io.parse": "io.parse_s",
    "io.export": "io.export_s",
    "scenario.validate": "scenario.validate_s",
    "scenario.check": "scenario.check_s",
    "scenario.extract": "scenario.extract_self_s",
    "construct.build": "construct.build_s",
    "construct.verify": "construct.verify_s",
    "construct.jordan": "construct.jordan_s",
    "lp.lhv": "lp.lhv_self_s",
    "lp.assemble": "lp.assemble_s",
    "quantum.born": "quantum.born_s",
}
TIME_METRICS = tuple(sorted(set(SELF_METRIC.values())))


@dataclass
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    start: float
    end: float = 0.0
    result: str = ""  # "pass" / "fail" for consistency checks


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = ""
        self.restored = True  # every uninstall so far put every original back

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.job, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str):
        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
                if name == "scenario.check":
                    span.result = "pass" if result is None else "fail"
                return result
            finally:
                self._close(span)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every binding and record whether each is the original again."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self.restored = self.restored and all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def run_job(self, job_id: str, fn, *args):
        """Call fn(*args) inside a root span for one job."""
        self.job = job_id
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], jobs: dict) -> dict[str, float]:
    """Self-time metrics and computed work counters summed over the spans.

    `jobs` maps job id to its Job; counters come from the job's scenario
    shape and the spans that actually ran (a check reached through
    extract counts like a direct one).
    """
    out: dict[str, float] = defaultdict(float)
    for name in TIME_METRICS:
        out[name] = 0.0
    own = self_times(spans)
    for s in spans:
        out[SELF_METRIC[s.name]] += own[s.id]
        job = jobs[s.job]
        if s.name == ROOT:
            out["trace.job_s"] += s.end - s.start
        elif s.name == "scenario.check":
            out[f"scenario.check_{s.result}_s"] += s.end - s.start
            subsets, pairs = check_work(job.settings)
            out["scenario.subsets"] += subsets
            out["scenario.pairs"] += pairs
        elif s.name == "construct.build":
            out["construct.atoms"] += joint_size(job.settings, job.outcomes)
            out["construct.terms"] += math.prod(1 + n for n in job.settings)
        elif s.name == "lp.assemble":
            rows = math.prod(job.settings) * math.prod(job.outcomes)
            cols = joint_size(job.settings, job.outcomes)
            out["lp.rows"] += rows
            out["lp.cols"] += cols
            out["lp.cells"] += rows * cols
    return dict(out)


def joint_size(settings, outcomes) -> int:
    return math.prod(k ** s for s, k in zip(settings, outcomes))


def check_work(settings) -> tuple[int, int]:
    """Proper site subsets scanned and tuple pairs compared by one check.

    For subset T there are prod_{n in T} S_n groups of compatible tuples,
    each of prod_{n not in T} S_n members, compared pairwise.
    """
    n = len(settings)
    subsets = pairs = 0
    for mask in range(1, (1 << n) - 1):
        inside = math.prod(settings[i] for i in range(n) if mask >> i & 1)
        group = math.prod(settings[i] for i in range(n) if not mask >> i & 1)
        subsets += 1
        pairs += inside * group * (group - 1) // 2
    return subsets, pairs
