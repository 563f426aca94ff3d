"""Self-test of the benchmark itself, not of lqhv.

    python3 perfbench/selftest.py [--seed N]

1. Runs each workload at --tiny scale with --trace 1 twice with one seed,
   each in a fresh process. The computed work counters and every job's
   output digest must repeat exactly; in each run the traced pass must
   write the same bytes as the untraced pass, and every wrapped binding
   must be restored.
2. Feeds the checker deliberately corrupted outputs; it must reject each.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/; it must exit non-zero without printing a result.

Exits 0 when everything holds. Takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_run" / "results"
COUNT_UNITS = ("count", "bytes", "bits")


def bench(workload: str, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_run(workload: str, seed: int) -> dict:
    proc = bench(workload, seed)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(RESULTS / f"{workload}-seed{seed}-trace1.json", encoding="utf-8") as fh:
        result = json.load(fh)
    counters = {k: v["value"] for k, v in line["metrics"].items() if v["unit"] in COUNT_UNITS}
    digests = {(r["job"], r["pass"], r["traced"]): r["digest"] for r in result["records"]}
    return {"line": line, "checks": result["trace_checks"], "counters": counters,
            "digests": digests}


def check_repeats(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for run in (first, second):
        if not run["line"]["correct"] or run["line"]["failed"]:
            problems.append(f"{workload}: a tiny run reported failed jobs")
        for key in ("traced_outputs_identical", "bindings_restored", "self_times_add_up"):
            if not run["checks"][key]:
                problems.append(f"{workload}: trace check {key} is false")
    if first["counters"] != second["counters"]:
        diff = {k: (v, second["counters"].get(k)) for k, v in first["counters"].items()
                if second["counters"].get(k) != v}
        problems.append(f"{workload}: counters differ between runs: {diff}")
    if first["digests"] != second["digests"]:
        problems.append(f"{workload}: output digests differ between runs")
    return problems


def checker_rejects_corruption(tmp: Path) -> list[str]:
    """Each corruption of a genuine lqhv output must fail the check."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from fractions import Fraction

    import checker
    from lqhv import boxes, cli
    from lqhv import io as lio

    tmp.mkdir(parents=True, exist_ok=True)

    def run(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), out.getvalue()

    def rejected(job, rc, stdout, corrupt) -> bool:
        if not checker.answer({"job": job, "rc": rc, "stdout": stdout})["ok"]:
            return False  # the genuine output must pass first
        data = checker.read_json(job["outputs"][0])
        corrupt(data)
        with open(job["outputs"][0], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return not checker.answer({"job": job, "rc": rc, "stdout": stdout})["ok"]

    problems = []
    fam = str(tmp / "pr.json")
    lio.save_family(boxes.isotropic_box(Fraction(3, 4)), fam)
    base = {"kind": "build", "input": fam, "expect_rc": 0, "meta": {}}

    out = str(tmp / "measure.json")
    rc, stdout = run(["build", fam, "--json", "-o", out])

    def bump_atom(d):
        d["atoms"][0] = str(Fraction(d["atoms"][0]) + Fraction(1, 7))
    if not rejected(dict(base, outputs=[out]), rc, stdout, bump_atom):
        problems.append("checker accepted a measure with a changed atom")

    out = str(tmp / "verdict.json")
    rc, stdout = run(["lhv", fam, "-o", out])

    def negate(d):
        d["certificate"] = [str(-Fraction(v)) for v in d["certificate"]]
    if not rejected(dict(base, kind="lhv", outputs=[out]), rc, stdout, negate):
        problems.append("checker accepted a negated LHV certificate")

    lio.save_family(boxes.isotropic_box(Fraction(1, 4)), fam)
    rc, stdout = run(["lhv", fam, "-o", out])

    def shift_mass(d):
        # Half the largest atom moves to the atom that differs in the last axis.
        w = [Fraction(v) for v in d["witness"]["atoms"]]
        i = w.index(max(w))
        w[i], w[i ^ 1] = w[i] / 2, w[i ^ 1] + w[i] / 2
        d["witness"]["atoms"] = [str(v) for v in w]
    if not rejected(dict(base, kind="lhv", outputs=[out]), rc, stdout, shift_mass):
        problems.append("checker accepted an LHV witness that misses a table")

    lio.save_family(boxes.signaling_example(), fam)
    rc, stdout = run(["check", fam, "--json"])
    job = dict(base, kind="check", outputs=[], expect_rc=2)
    report = json.loads(stdout)
    report["consistency"]["witness"]["max_discrepancy"] = "1/2"
    if checker.answer({"job": job, "rc": rc, "stdout": json.dumps(report)})["ok"]:
        problems.append("checker accepted a witness with the wrong discrepancy")
    if checker.answer({"job": dict(job, expect_rc=0), "rc": 0, "stdout": stdout})["ok"]:
        problems.append("checker accepted a pass on a signaling family")
    return problems


def check_fails_without_sources(tmp: Path) -> list[str]:
    if tmp.exists():
        shutil.rmtree(tmp)
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    try:
        proc = bench("exact-build", 1, cwd=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark did not fail cleanly without lqhv sources"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    scratch = ROOT / ".perfbench_run" / "selftest"
    problems = []
    for workload in ("exact-build", "float-many-party", "lhv-decide"):
        problems += check_repeats(workload, args.seed)
    problems += checker_rejects_corruption(scratch / "corrupt")
    problems += check_fails_without_sources(scratch / "stripped")
    shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
