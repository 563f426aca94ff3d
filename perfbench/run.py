"""lqhv benchmark: seeded job corpora run through `lqhv.cli.main`, timed from outside.

    python3 perfbench/run.py --workload exact-build --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports lqhv from `src/`. One
process runs one job at a time in a closed loop (one client, no arrival
schedule), which is the `lqhv` command without interpreter start-up.
Every output is checked by `checker.py` in a separate process, outside
the timed region. With `--trace 0` the last line of stdout carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced pass, taken by wrapping lqhv's module bindings (`tracer.py`).
Times are scaled to a nominal host speed, measured by a fixed kernel
timed before every job (`hostspeed.py`); the raw figures stay in the
result file.
A full result file goes to `.perfbench_run/results/`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 3
# Nominal length of one corpus pass on a 2-core x86 VM; --seconds buys
# round(seconds / PASS_SECONDS) passes, at least two.
PASS_SECONDS = 15
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "io.load_s": "s", "io.parse_s": "s", "scenario.validate_s": "s", "cli.self_s": "s",
    "io.export_s": "s", "io.bytes_in": "bytes", "io.bytes_out": "bytes",
    "scenario.check_s": "s", "scenario.check_pass_s": "s", "scenario.check_fail_s": "s",
    "scenario.extract_self_s": "s", "scenario.subsets": "count", "scenario.pairs": "count",
    "construct.build_s": "s", "construct.verify_s": "s", "construct.jordan_s": "s",
    "construct.atoms": "count", "construct.terms": "count", "construct.max_den_bits": "bits",
    "lp.assemble_s": "s", "lp.lhv_self_s": "s", "lp.rows": "count", "lp.cols": "count",
    "lp.cells": "count", "lp.feasible": "count", "lp.infeasible": "count",
    "quantum.born_s": "s", "trace.job_s": "s", "trace.overhead_s": "s",
}
# The layer each workload was chosen to load; the traced run confirms it
# carries more than half of the job time.
PURPOSE = {
    "exact-build": ("construct.build_s",),
    "float-many-party": ("scenario.check_s", "scenario.extract_self_s"),
    "lhv-decide": ("lp.lhv_self_s",),
}


def pin_environment() -> dict:
    """One BLAS thread and lqhv's default tolerance, before numpy loads."""
    was_set = os.environ.pop("LQHV_TOL", None) is not None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "LQHV_TOL": "unset" + (" (cleared for the run)" if was_set else "")}


def import_lqhv():
    src = ROOT / "src"
    if not (src / "lqhv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lqhv sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import lqhv.cli
    if Path(lqhv.cli.__file__).resolve().parent != (src / "lqhv").resolve():
        raise SystemExit(f"perfbench: imported lqhv from {lqhv.cli.__file__}, not from {src}")
    return lqhv.cli


def environment(pinned: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), **pinned}


def digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "missing"


def output_digests(job) -> tuple[str, ...]:
    return tuple(digest(p) for p in job.outputs)


def stable_report(job, stdout: str) -> str:
    """The job's stdout without the fields that change from run to run."""
    if "--json" not in job.argv:
        return ""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    for key in ("timings", "input", "output"):
        report.pop(key, None)
    return json.dumps(report, sort_keys=True)


class CheckerProcess:
    """The independent checker in its own process, one request at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "checker.py"), "--serve"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        self.cache: dict[tuple, dict] = {}

    def check(self, job, rc, stdout: str, key: tuple) -> dict:
        # Identical output for the same job needs no second look.
        if key not in self.cache:
            self.proc.stdin.write(json.dumps({"job": job.as_dict(), "rc": rc, "stdout": stdout}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the checker process exited")
            self.cache[key] = json.loads(line)
        return self.cache[key]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def call_cli(cli, job, tracer=None):
    """Run one job in-process; returns (seconds, exit code, stdout, error)."""
    for out in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
    stdout, error = io.StringIO(), ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = tracer.run_job(job.id, cli.main, job.argv) if tracer else cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails the job; the run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return seconds, rc, stdout.getvalue(), error


def run_pass(cli, jobs, checker, index: int, host, tracer=None) -> list[dict]:
    """One pass over the corpus; outputs are checked after the whole pass.

    The host-speed kernel is timed before every job (before every pair of
    runs of one job when tracing), outside the job's own time.

    With a tracer each job runs twice back to back, untraced and traced, so
    the tracing overhead is a paired difference and both runs must write
    the same bytes. Which run goes first alternates from job to job, so the
    second run's warmer caches cancel out of the overhead.
    """
    def once(job, traced: bool):
        if not traced:
            return call_cli(cli, job)
        with tracer.installed():
            return call_cli(cli, job, tracer)

    runs = []
    for i, job in enumerate(jobs):
        host.sample()
        if tracer is None:
            runs.append((job, False, once(job, False)))
            continue
        first, second = (False, True) if i % 2 == 0 else (True, False)
        runs.append((job, first, once(job, first), output_digests(job)))
        runs.append((job, second, once(job, second)))
    records = []
    for job, traced, (seconds, rc, stdout, error), *first in runs:
        digests = first[0] if first else output_digests(job)
        report = stable_report(job, stdout)
        if error:
            verdict = {"ok": False, "reason": error, "info": {}}
        elif first and digests != output_digests(job):
            verdict = {"ok": False, "reason": "untraced and traced outputs differ", "info": {}}
        else:
            verdict = checker.check(job, rc, stdout, (job.id, rc, digests, report))
        records.append({
            "job": job.id, "cls": job.cls, "pass": index, "traced": traced,
            "seconds": seconds, "rc": rc, "ok": verdict["ok"], "reason": verdict["reason"],
            "info": verdict["info"],
            "digest": hashlib.sha256(repr((digests, report)).encode()).hexdigest(),
            "bytes_in": os.path.getsize(job.input),
            "bytes_out": sum(os.path.getsize(p) for p in job.outputs if os.path.exists(p)),
        })
    mark_mode_disagreements(jobs, [r for r in records if not r["traced"]])
    mark_mode_disagreements(jobs, [r for r in records if r["traced"]])
    return records


def mark_mode_disagreements(jobs, records) -> None:
    """One family decided in both arithmetic modes must get one verdict."""
    by_pair: dict[str, list[dict]] = {}
    for job, rec in zip(jobs, records):
        if "pair" in job.meta:
            by_pair.setdefault(job.meta["pair"], []).append(rec)
    for pair in by_pair.values():
        verdicts = {rec["info"].get("feasible") for rec in pair}
        if len(verdicts) > 1:
            for rec in pair:
                rec["ok"] = False
                rec["reason"] = rec["reason"] or "rational and float verdicts disagree"


def probe_setup(args, host) -> float:
    """Seconds from starting a fresh process to its first timed job."""
    host.sample()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def set_up(args, cli, workdir: Path):
    """Everything before the first timed job: corpus, files, warm-up job."""
    import corpus
    jobs = corpus.build_corpus(args.workload, args.seed, workdir, tiny=args.tiny)
    call_cli(cli, corpus.warmup_job(args.workload, workdir))
    return jobs


def percentile_class(records) -> str:
    """Class(es) of the samples on both sides of the p90 rank."""
    ranked = sorted(records, key=lambda r: r["seconds"])
    h = 0.9 * (len(ranked) - 1)
    return "|".join(sorted({ranked[int(h)]["cls"], ranked[min(int(h) + 1, len(ranked) - 1)]["cls"]}))


def class_table(records) -> dict:
    out: dict[str, dict] = {}
    for cls in sorted({r["cls"] for r in records}):
        times = [r["seconds"] for r in records if r["cls"] == cls]
        out[cls] = {"jobs": len(times), "median_s": statistics.median(times), "total_s": sum(times)}
    return out


def end_to_end(records, setup_samples, peak_rss_mb: float, factor: float = 1.0) -> dict:
    """The end-to-end metrics, with every time multiplied by `factor`."""
    times = [r["seconds"] * factor for r in records]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": statistics.median(setup_samples) * factor,
        "jobs_per_s": ok / sum(times),
        "job_s.p50": deciles[4],
        "job_s.p90": deciles[8],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": ok / len(records),
    }


def per_layer(spans, jobs, records) -> dict:
    """The per-layer metrics in raw seconds; see `scale_times`."""
    import tracer as tr
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n_traced = len({r["pass"] for r in traced})
    n_untraced = len({r["pass"] for r in untraced})
    sums = tr.layer_metrics(spans, {j.id: j for j in jobs})
    out = {name: sums.get(name, 0) / n_traced for name in PER_LAYER}
    out["io.bytes_in"] = sum(r["bytes_in"] for r in traced) // n_traced
    out["io.bytes_out"] = sum(r["bytes_out"] for r in traced) // n_traced
    out["construct.max_den_bits"] = max((r["info"].get("max_den_bits", 0) for r in traced), default=0)
    out["lp.feasible"] = sum(r["info"].get("feasible") is True for r in traced) // n_traced
    out["lp.infeasible"] = sum(r["info"].get("feasible") is False for r in traced) // n_traced
    for name in ("scenario.subsets", "scenario.pairs", "construct.atoms", "construct.terms",
                 "lp.rows", "lp.cols", "lp.cells"):
        out[name] = int(round(out[name]))
    out["trace.overhead_s"] = (sum(r["seconds"] for r in traced) / n_traced
                               - sum(r["seconds"] for r in untraced) / n_untraced)
    return out


def scale_times(layer: dict, factor: float) -> dict:
    return {k: v * factor if PER_LAYER[k] == "s" else v for k, v in layer.items()}


def trace_checks(args, layer: dict, records) -> dict:
    """Facts the traced run must confirm, kept in the result file."""
    import tracer as tr
    spans_total = sum(layer[name] for name in tr.TIME_METRICS)
    share = sum(layer[name] for name in PURPOSE[args.workload]) / layer["trace.job_s"]
    by_job: dict[str, set] = {}
    for r in records:
        by_job.setdefault(r["job"], set()).add(r["digest"])
    return {
        "self_times_add_up": abs(spans_total - layer["trace.job_s"]) < 1e-6,
        "traced_outputs_identical": all(len(d) == 1 for d in by_job.values()),
        "purpose_layers": list(PURPOSE[args.workload]),
        "purpose_share": share,
        "purpose_holds": share > 0.5,
    }


def measure(args, cli, pinned: dict) -> dict:
    import hostspeed
    workdir = RUN_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    checker = None
    tracer = None
    records: list[dict] = []
    try:
        jobs = set_up(args, cli, workdir)
        main_setup_s = time.perf_counter() - START
        checker = CheckerProcess()
        host = hostspeed.HostSpeed()
        if args.trace:
            import tracer as tr
            tracer = tr.Tracer()
        # The pass count depends on --seconds alone, never on how fast the
        # host is: the first pass of a process runs slower than later ones
        # (up to 1.5x on rational builds), so every run must mix them alike.
        # A traced pass runs every job twice (see run_pass).
        passes = max(2, round(args.seconds / PASS_SECONDS))
        if tracer is not None:
            passes //= 2
        for index in range(passes):
            records += run_pass(cli, jobs, checker, index, host, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    untraced = [r for r in records if not r["traced"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(pinned),
        "loop": "closed, one client, one job at a time, in-process lqhv.cli.main",
        "passes": passes, "jobs_per_pass": len(jobs), "main_setup_s": main_setup_s,
        "attempted": len(records), "failed": sum(not r["ok"] for r in records),
        "fail_frac": sum(not r["ok"] for r in records) / len(records),
        "p90_class": percentile_class(untraced),
        "classes": class_table(untraced),
        "failures": [r for r in records if not r["ok"]][:20],
        "records": records,
    }
    correct = result["failed"] == 0
    if not args.trace:
        # Set-up probes are fresh processes, so they run after the passes.
        result["setup_samples_s"] = [probe_setup(args, host) for _ in range(SETUP_PROBES)]
        result["raw_end_to_end"] = end_to_end(untraced, result["setup_samples_s"], peak_rss_mb)
        result["end_to_end"] = end_to_end(untraced, result["setup_samples_s"], peak_rss_mb,
                                          host.factor())
    else:
        layer = per_layer(tracer.spans, jobs, records)
        checks = trace_checks(args, layer, records)
        checks["bindings_restored"] = tracer.restored
        result["raw_per_layer"] = layer
        layer = scale_times(layer, host.factor())
        result["per_layer"] = layer
        result["trace_checks"] = checks
        correct = correct and checks["bindings_restored"] and checks["self_times_add_up"] \
            and checks["traced_outputs_identical"]
        write_spans(args, tracer.spans)
    result["host"] = {"kernel_nominal_s": hostspeed.NOMINAL_S, "kernel_median_s": host.median_s(),
                      "factor": host.factor(), "kernel_samples_s": host.samples}
    result["correct"] = correct
    return result


def write_spans(args, spans) -> None:
    from dataclasses import asdict
    path = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in spans], fh)


def setup_probe(args, cli) -> None:
    workdir = RUN_DIR / f"probe-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        set_up(args, cli, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    import corpus
    p = argparse.ArgumentParser(description="lqhv benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help=f"measuring time; buys one corpus pass per {PASS_SECONDS} s, "
                        "at least two")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one job per class, no class above 1.5 s (self-test scale)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    pinned = pin_environment()
    cli = import_lqhv()
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args, cli)
        return 0
    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    result = measure(args, cli, pinned)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RUN_DIR / "results" / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
