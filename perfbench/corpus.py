"""Seeded job corpora for the three workloads.

A corpus is a list of jobs. Each job is one `lqhv` command line plus what
the checker needs to know about it. Every input is drawn from the run's
seed, so one seed always gives the same files. Families come from
`lqhv.boxes`, so generating them is set-up work, never job time.

Class counts are fixed, not scaled with the run length. They are chosen
so that one pass holds at least 100 jobs (p90 then has ten samples above
it) and takes 9-19 s on a 2-core x86 VM, depending on the host's load,
so the two passes of a 30 s run fit the run budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from lqhv import boxes, quantum
from lqhv import io as lio
from lqhv.scenario import Scenario

import checker

RATIONAL, FLOAT = checker.RATIONAL, checker.FLOAT
# A perturbed family must signal by far more than lqhv's float tolerance.
SIGNAL_FLOOR = 1e-6


@dataclass
class Job:
    id: str
    cls: str
    kind: str  # build | check | lhv | quantum
    argv: list
    input: str
    outputs: list
    expect_rc: int
    settings: list
    outcomes: list
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class JobClass:
    """`count` jobs of one kind on one family shape.

    `est_s` is the job time on the reference machine; `--tiny` drops
    classes above a threshold of it.
    """

    name: str
    kind: str
    count: int
    est_s: float
    settings: tuple = ()
    outcomes: tuple = ()
    mode: str = RATIONAL
    source: str = "random"  # random | chsh | signal | iso-local | iso-nonlocal | pr | singlet


def _binary(n: int) -> tuple[tuple, tuple]:
    return (2,) * n, (2,) * n


CLASSES = {
    # Rational build: construct carries most of the time, the more the
    # larger the joint space (16 to 1024 atoms). Build times within a
    # class vary with the drawn weights (S333: 0.2-0.48 s), so the p90
    # rank sits among 20 S333 jobs, above the 8 overlapping (2,)^4 ones,
    # and p50 in the middle of the S33 class.
    "exact-build": (
        JobClass("build/chsh/r", "build", 44, 0.006, (2, 2), (2, 2), source="chsh"),
        JobClass("build/S33-K22/r", "build", 20, 0.015, (3, 3), (2, 2)),
        JobClass("build/S222-K222/r", "build", 20, 0.025, (2, 2, 2), (2, 2, 2)),
        JobClass("build/2^4/r", "build", 8, 0.2, *_binary(4)),
        JobClass("build/S333-K222/r", "build", 20, 0.35, (3, 3, 3), (2, 2, 2)),
        JobClass("build/2^5/r", "build", 1, 2.1, *_binary(5)),
    ),
    # Float many-party: the all-pairs check dominates; half the check jobs
    # signal (the 8-party check runs only on a consistent family, and one
    # more 7-party check signals instead, to keep each pass short). The
    # (5,5)/(4,4) build is the one export-heavy job.
    "float-many-party": (
        JobClass("check/2^5/pass", "check", 40, 0.02, *_binary(5), FLOAT),
        JobClass("check/2^5/fail", "check", 40, 0.02, *_binary(5), FLOAT, "signal"),
        JobClass("check/2^6/pass", "check", 6, 0.08, *_binary(6), FLOAT),
        JobClass("check/2^6/fail", "check", 6, 0.08, *_binary(6), FLOAT, "signal"),
        JobClass("check/2^7/pass", "check", 1, 0.55, *_binary(7), FLOAT),
        JobClass("check/2^7/fail", "check", 2, 0.55, *_binary(7), FLOAT, "signal"),
        JobClass("check/2^8/pass", "check", 1, 3.0, *_binary(8), FLOAT),
        JobClass("build/2^6/f", "build", 2, 0.25, *_binary(6), FLOAT),
        JobClass("build/2^7/f", "build", 1, 1.5, *_binary(7), FLOAT),
        JobClass("build/S55-K44/f", "build", 1, 1.9, (5, 5), (4, 4), FLOAT),
    ),
    # LHV decision: the simplex is nearly all of the time. The rational and
    # float classes of one shape share their families (same sub-seeds), so
    # their verdicts must agree. A local isotropic box (feasible, with a
    # witness) takes about twice as long as a nonlocal one (certificate);
    # the counts put the p50 rank among the nonlocal ones, not on the
    # edge between the two.
    "lhv-decide": (
        JobClass("lhv/iso-local/r", "lhv", 10, 0.02, (2, 2), (2, 2), source="iso-local"),
        JobClass("lhv/iso-nonlocal/r", "lhv", 50, 0.011, (2, 2), (2, 2), source="iso-nonlocal"),
        JobClass("lhv/pr/r", "lhv", 4, 0.012, (2, 2), (2, 2), source="pr"),
        JobClass("lhv/singlet/f", "lhv", 10, 0.004, (2, 2), (2, 2), FLOAT, "singlet"),
        JobClass("lhv/S33-K22/r", "lhv", 8, 0.31, (3, 3), (2, 2)),
        JobClass("lhv/S33-K22/f", "lhv", 8, 0.014, (3, 3), (2, 2), FLOAT),
        JobClass("lhv/S222-K222/r", "lhv", 8, 0.4, (2, 2, 2), (2, 2, 2)),
        JobClass("lhv/S222-K222/f", "lhv", 8, 0.025, (2, 2, 2), (2, 2, 2), FLOAT),
        JobClass("lhv/2^4/f", "lhv", 14, 0.45, *_binary(4), FLOAT),
    ),
}


WORKLOADS = tuple(CLASSES)


def sub_seed(*parts) -> int:
    """Stable integer seed from the run seed and a job's position."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest[:12], 16)


def perturb_to_signal(data: dict, rng: random.Random) -> dict:
    """Make a float family signal while every table stays a distribution.

    One table's largest cell gives a share of its mass to the cell that
    differs only in one site's outcome. That site's marginal then moves in
    this table alone, so it differs from every other tuple with the same
    setting there. Sums are unchanged and no entry goes negative. The
    result is confirmed to signal with the independent checker.
    """
    outcomes = [p["outcomes"] for p in data["parties"]]
    key = rng.choice(sorted(data["tables"]))
    table = np.array(data["tables"][key], dtype=float).reshape(outcomes)
    site = rng.randrange(len(outcomes))
    src = np.unravel_index(int(np.argmax(table)), table.shape)
    dst = list(src)
    dst[site] = (src[site] + 1 + rng.randrange(outcomes[site] - 1)) % outcomes[site]
    delta = table[src] * rng.uniform(0.2, 0.8)
    table[src] -= delta
    table[tuple(dst)] += delta
    out = dict(data, tables=dict(data["tables"], **{key: table.reshape(-1).tolist()}))
    worst, _ = checker.max_signaling(checker.family_from_data(out))
    if not worst > SIGNAL_FLOOR:
        raise RuntimeError(f"perturbed family signals by only {worst}")
    return out


def _singlet_file(angles, path: Path) -> None:
    povms = [[quantum.projective_qubit_povm((math.sin(t), 0.0, math.cos(t))) for t in site]
             for site in angles]
    lio.save_quantum(quantum.QuantumScenario(quantum.singlet_state(), povms), str(path))


def _family_data(jc: JobClass, seed: int, i: int, rng: random.Random,
                 drawn: dict) -> tuple[dict, dict]:
    """JSON family object and checker metadata for job i of a class.

    `drawn` keeps the random mixtures already made in this corpus: a
    signaling class perturbs the same mixtures its passing twin checks.
    """
    meta: dict = {}
    if jc.source == "chsh":
        return lio.family_to_json(boxes.random_nonsignaling_family(sub_seed(seed, jc.name, i))), meta
    if jc.source in ("iso-local", "iso-nonlocal"):
        # Local boxes have visibility below 1/2, nonlocal ones above.
        lo, hi = (10, 49) if jc.source == "iso-local" else (51, 90)
        return lio.family_to_json(boxes.isotropic_box(Fraction(rng.randint(lo, hi), 100))), meta
    if jc.source == "pr":
        bits = [rng.randrange(2) for _ in range(3)]
        return lio.family_to_json(boxes.pr_type_vertex(*bits)), meta
    # Shape and index fix the sub-seed, so the rational and float classes
    # of one shape draw the same mixtures.
    shape_key = (jc.settings, jc.outcomes)
    key = (shape_key, jc.mode, i)
    if key not in drawn:
        drawn[key] = lio.family_to_json(boxes.random_scenario_family(
            Scenario(*shape_key), sub_seed(seed, shape_key, i), jc.mode))
    if jc.kind == "lhv":
        meta["pair"] = f"{shape_key}/{i}"
    if jc.source == "signal":
        return perturb_to_signal(drawn[key], rng), meta
    return drawn[key], meta


def build_corpus(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's input files under `workdir` and return its jobs.

    Jobs come in units (a quantum job and the lhv job that reads its output
    form one unit); units are shuffled with the seed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    units: list[list[Job]] = []
    drawn: dict = {}
    for jc in CLASSES[workload]:
        if tiny and jc.est_s > 1.5:
            continue
        rng = random.Random(sub_seed(seed, jc.name))
        for i in range(1 if tiny else jc.count):
            jid = f"j{len(units):03d}"
            base = workdir / jid
            if jc.source == "singlet":
                angles = [[rng.uniform(0, 2 * math.pi) for _ in range(2)] for _ in range(2)]
                _singlet_file(angles, base.with_suffix(".quantum.json"))
                fam = str(base.with_suffix(".family.json"))
                q = Job(jid + "q", "quantum/singlet/f", "quantum",
                        ["quantum", str(base.with_suffix(".quantum.json")), "-o", fam],
                        str(base.with_suffix(".quantum.json")), [fam], 0,
                        list(jc.settings), list(jc.outcomes), {"angles": angles})
                out = str(base.with_suffix(".verdict.json"))
                units.append([q, Job(jid, jc.name, "lhv", ["lhv", fam, "-o", out], fam, [out], 0,
                                     list(jc.settings), list(jc.outcomes))])
                continue
            data, meta = _family_data(jc, seed, i, rng, drawn)
            fam = base.with_suffix(".family.json")
            with open(fam, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data))
            if jc.kind == "check":
                argv, outs, rc = ["check", str(fam), "--json"], [], 2 if jc.source == "signal" else 0
            elif jc.kind == "build":
                out = str(base.with_suffix(".measure.json"))
                argv, outs, rc = ["build", str(fam), "--json", "-o", out], [out], 0
            else:
                out = str(base.with_suffix(".verdict.json"))
                argv, outs, rc = ["lhv", str(fam), "-o", out], [out], 0
            units.append([Job(jid, jc.name, jc.kind, argv, str(fam), outs, rc,
                              list(jc.settings), list(jc.outcomes), meta)])
    random.Random(sub_seed(seed, workload, "order")).shuffle(units)
    return [job for unit in units for job in unit]


def warmup_job(workload: str, workdir: Path) -> Job:
    """One small untimed job of the workload's own kind, on a fixed family."""
    kind = CLASSES[workload][0].kind
    fam = workdir / "warmup.family.json"
    lio.save_family(boxes.isotropic_box(Fraction(1, 2)), str(fam))
    out = str(workdir / "warmup.out.json")
    argv = {"build": ["build", str(fam), "--json", "-o", out],
            "check": ["check", str(fam), "--json"],
            "lhv": ["lhv", str(fam), "-o", out]}[kind]
    return Job("warmup", "warmup", kind, argv, str(fam), [out] if kind != "check" else [], 0,
               [2, 2], [2, 2])
