"""Independent checker for the outputs of lqhv jobs.

It reads family, measure, verdict and quantum-derived files with its own
parser and checks them with plain numpy sums. It never imports lqhv, so a
defect in lqhv's own verification cannot hide a wrong answer.

    python3 perfbench/checker.py --serve

answers one JSON request per input line ({"job": ..., "rc": ..., "stdout":
...}) with one JSON line ({"ok": ..., "reason": ..., "info": ...}). The
benchmark runs it as a separate process so that the checker's memory
stays out of the measured process's peak RSS.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"
# Entrywise tolerance of float-mode comparisons (lqhv's default tolerance).
FLOAT_TOL = 1e-9
# A reported float discrepancy must match the recomputed one this closely.
WITNESS_TOL = 1e-12


class CheckFailed(Exception):
    """An output that does not hold up under the independent check."""


class Family:
    """Joint tables keyed by 1-based setting tuples, as read from a file."""

    def __init__(self, settings, outcomes, mode, tables):
        self.settings = tuple(settings)
        self.outcomes = tuple(outcomes)
        self.mode = mode
        self.tables = tables

    @property
    def n_sites(self) -> int:
        return len(self.settings)

    def tuples(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(1, s + 1) for s in self.settings)))

    def axis(self, site: int, setting: int) -> int:
        """Joint-space axis of the 0-based site at its 1-based setting."""
        return sum(self.settings[:site]) + setting - 1

    @property
    def joint_shape(self) -> tuple[int, ...]:
        return tuple(k for s, k in zip(self.settings, self.outcomes) for _ in range(s))

    def zero(self):
        return Fraction(0) if self.mode == RATIONAL else 0.0


def entries(values, mode: str) -> np.ndarray:
    if mode == RATIONAL:
        return np.array([Fraction(v) for v in values], dtype=object)
    if mode == FLOAT:
        return np.array(values, dtype=float)
    raise CheckFailed(f"unknown mode {mode!r}")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def family_from_data(data) -> Family:
    settings = [int(p["settings"]) for p in data["parties"]]
    outcomes = [int(p["outcomes"]) for p in data["parties"]]
    mode = data["mode"]
    tables = {}
    for key, values in data["tables"].items():
        t = tuple(int(v) for v in key.split(","))
        tables[t] = entries(values, mode).reshape(outcomes)
    family = Family(settings, outcomes, mode, tables)
    if set(tables) != set(family.tuples()):
        raise CheckFailed("family does not hold exactly one table per setting tuple")
    return family


def marginal(table: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Sum out every outcome axis of `table` except the 0-based sites in `keep`."""
    drop = tuple(n for n in range(table.ndim) if n not in keep)
    return table.sum(axis=drop) if drop else table


def stacked(family: Family) -> np.ndarray:
    """All tables in one array with axes (s_1..s_N, k_1..k_N), settings 0-based."""
    dtype = object if family.mode == RATIONAL else float
    out = np.empty(family.settings + family.outcomes, dtype=dtype)
    for t, table in family.tables.items():
        out[tuple(s - 1 for s in t)] = table
    return out


def max_signaling(family: Family):
    """Largest disagreement between compatible sub-tuple marginals.

    For each proper site subset T the outcome axes outside T are summed
    out; the marginal must then be constant along the setting axes
    outside T, and max - min along them is the largest pairwise
    discrepancy. Returns (discrepancy, subset) with subset 0-based, or
    (0, None) when nothing disagrees.
    """
    arr = stacked(family)
    n = family.n_sites
    worst, where = family.zero(), None
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            rest = tuple(m for m in range(n) if m not in subset)
            marg = arr.sum(axis=tuple(n + m for m in rest))
            spread = (marg.max(axis=rest) - marg.min(axis=rest)).max()
            if spread > worst:
                worst, where = spread, subset
    return worst, where


def is_close(a, b, tol: float, mode: str) -> bool:
    return a == b if mode == RATIONAL else abs(a - b) <= tol


def check_measure(family: Family, data) -> np.ndarray:
    """Marginalize a measure object and compare it with every table."""
    if data["mode"] != family.mode:
        raise CheckFailed(f"measure mode {data['mode']!r} differs from the family's")
    axes = [(int(a["site"]), int(a["setting"]), int(a["outcomes"])) for a in data["axes"]]
    expected = [(n + 1, s, k) for n, (ss, k) in enumerate(zip(family.settings, family.outcomes))
                for s in range(1, ss + 1)]
    if axes != expected:
        raise CheckFailed("measure axes are not (1,1)..(N,S_N) with the family's outcome counts")
    atoms = entries(data["atoms"], family.mode)
    if atoms.size != math.prod(family.joint_shape):
        raise CheckFailed(f"measure holds {atoms.size} atoms, expected {math.prod(family.joint_shape)}")
    atoms = atoms.reshape(family.joint_shape)
    rank = atoms.ndim
    for t, table in family.tables.items():
        keep = {family.axis(n, s) for n, s in enumerate(t)}
        marg = atoms.sum(axis=tuple(ax for ax in range(rank) if ax not in keep))
        if family.mode == RATIONAL:
            if not (marg == table).all():
                raise CheckFailed(f"measure marginal at {t} differs from the table")
        else:
            err = float(np.abs(marg - table).max())
            if err > FLOAT_TOL:
                raise CheckFailed(f"measure marginal at {t} is off by {err:.3e}")
    return atoms


def certificate_values(family: Family, y: np.ndarray):
    """Return (y.b, y.A) with y.A gathered per atom, never via a matrix.

    Row order is tuples lexicographic, outcomes row-major within a tuple.
    Atom x's column of A holds a 1 in row (t, outcome of x on t's axes)
    for every tuple t, so (y.A)[x] = sum_t y_t[x restricted to t's axes].
    """
    size = math.prod(family.outcomes)
    tuples = family.tuples()
    if y.size != size * len(tuples):
        raise CheckFailed(f"certificate has {y.size} rows, expected {size * len(tuples)}")
    rank = len(family.joint_shape)
    ya = np.full(family.joint_shape, family.zero(), dtype=y.dtype)
    yb = family.zero()
    for i, t in enumerate(tuples):
        yt = y[i * size:(i + 1) * size].reshape(family.outcomes)
        yb = yb + (yt * family.tables[t]).sum()
        shape = [1] * rank
        for n, s in enumerate(t):
            shape[family.axis(n, s)] = family.outcomes[n]
        ya = ya + yt.reshape(shape)
    return yb, ya


def _check_check(job, family: Family, rc: int, stdout: str) -> dict:
    report = json.loads(stdout)
    worst, _ = max_signaling(family)
    floor = family.zero() if family.mode == RATIONAL else FLOAT_TOL
    signals = worst > floor
    if signals != (rc == 2):
        raise CheckFailed(f"exit code {rc} but the independent maximum discrepancy is {worst}")
    if not signals:
        if report["consistency"]["passed"] is not True:
            raise CheckFailed("exit code 0 without a passing report")
        return {"signals": False}
    w = report["consistency"]["witness"]
    subset = tuple(int(n) - 1 for n in w["site_subset"])
    common = tuple(int(s) for s in w["common_settings"])
    ta = tuple(int(s) for s in w["tuple_a"])
    tb = tuple(int(s) for s in w["tuple_b"])
    if ta == tb:
        raise CheckFailed("witness names the same tuple twice")
    if tuple(ta[n] for n in subset) != common or tuple(tb[n] for n in subset) != common:
        raise CheckFailed("witness tuples do not share the common settings on the subset")
    d = np.abs(marginal(family.tables[ta], subset) - marginal(family.tables[tb], subset)).max()
    reported = entries([w["max_discrepancy"]], family.mode)[0]
    if not is_close(d, reported, WITNESS_TOL, family.mode):
        raise CheckFailed(f"witness tuples differ by {d}, report says {reported}")
    if not is_close(reported, worst, WITNESS_TOL, family.mode):
        raise CheckFailed(f"reported discrepancy {reported} is not the largest, {worst}")
    return {"signals": True}


def _check_build(job, family: Family, stdout: str) -> dict:
    report = json.loads(stdout)
    if report["consistency"]["passed"] is not True:
        raise CheckFailed("build report does not record a passed consistency check")
    if int(report["construction"]["atom_count"]) != math.prod(family.joint_shape):
        raise CheckFailed("build report states the wrong atom count")
    atoms = check_measure(family, read_json(job["outputs"][0]))
    info = {}
    if family.mode == RATIONAL:
        info["max_den_bits"] = max(a.denominator.bit_length() for a in atoms.flat)
    return info


def _check_lhv(job, family: Family) -> dict:
    verdict = read_json(job["outputs"][0])
    if verdict["feasible"] is True:
        if verdict["certificate"] is not None:
            raise CheckFailed("feasible verdict also carries a certificate")
        atoms = check_measure(family, verdict["witness"])
        if atoms.min() < family.zero():
            raise CheckFailed(f"witness has a negative atom {atoms.min()}")
        return {"feasible": True}
    if verdict["feasible"] is not False or verdict["witness"] is not None:
        raise CheckFailed("infeasible verdict is malformed")
    y = entries(verdict["certificate"], family.mode)
    yb, ya = certificate_values(family, y)
    slack = family.zero() if family.mode == RATIONAL else FLOAT_TOL
    if not yb > slack:
        raise CheckFailed(f"certificate does not separate: y.b = {yb}")
    if ya.max() > slack:
        raise CheckFailed(f"certificate is positive on an atom: max y.A = {ya.max()}")
    return {"feasible": False}


def _check_quantum(job) -> dict:
    """Singlet with measurements in the x-z plane at the recorded angles.

    P(k, l | a, b) = (1 - (-1)^(k+l) cos(theta_a - theta_b)) / 4.
    """
    family = family_from_data(read_json(job["outputs"][0]))
    if family.settings != (2, 2) or family.outcomes != (2, 2) or family.mode != FLOAT:
        raise CheckFailed("quantum output is not a float (2,2)/(2,2) family")
    angles_a, angles_b = job["meta"]["angles"]
    for (i, a), (j, b) in itertools.product(enumerate(angles_a, 1), enumerate(angles_b, 1)):
        c = math.cos(a - b)
        expect = np.array([[(1 - c) / 4, (1 + c) / 4], [(1 + c) / 4, (1 - c) / 4]])
        err = float(np.abs(family.tables[(i, j)] - expect).max())
        if err > FLOAT_TOL:
            raise CheckFailed(f"Born table at ({i},{j}) is off by {err:.3e}")
    return {}


def check_job(job: dict, rc, stdout: str) -> dict:
    """Check one finished job; returns facts for the counters or raises."""
    if rc != job["expect_rc"]:
        raise CheckFailed(f"exit code {rc}, expected {job['expect_rc']}")
    if job["kind"] == "quantum":
        return _check_quantum(job)
    family = family_from_data(read_json(job["input"]))
    if job["kind"] == "check":
        return _check_check(job, family, rc, stdout)
    if job["kind"] == "build":
        return _check_build(job, family, stdout)
    if job["kind"] == "lhv":
        return _check_lhv(job, family)
    raise CheckFailed(f"unknown job kind {job['kind']!r}")


def answer(request: dict) -> dict:
    try:
        info = check_job(request["job"], request["rc"], request["stdout"])
    except CheckFailed as exc:
        return {"ok": False, "reason": str(exc), "info": {}}
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        # Missing or malformed output is a failed job, not a checker crash.
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}", "info": {}}
    return {"ok": True, "reason": "", "info": info}


def serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(answer(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: python3 perfbench/checker.py --serve")
    serve()
