"""Command-line front end: validate, check, build, diagnose, export.

Subcommands wire the library into a file pipeline over the JSON formats
of `lqhv.io`:

    check    consistency check of a family file
    build    construct the signed measure, verify it, export it
    quantum  turn a state + POVM file into a family file
    lhv      decide positive-measure (LHV) feasibility
    expect   product expectation of per-site observables
    random   emit a seeded random nonsignaling family

Exit codes: 0 success, 1 malformed input, 2 failed mathematical
precondition (consistency violation, bad representation), 3 resource
budget exceeded. Human-readable results go to stdout; with --json the
stdout payload is a machine-readable run report instead and diagnostics
move to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time

from . import numeric
from .boxes import random_nonsignaling_family
from .construct import (
    DEFAULT_ATOM_BUDGET,
    build_deterministic_measure,
    jordan_decompose,
    product_expectation_family,
    product_expectation_model,
    verify_marginals,
)
from .errors import AtomBudgetError, InputError, LqhvError, RepresentationError, SignalingError
from .io import (
    load_family,
    load_quantum,
    parse_tuple_key,
    save_family,
    save_measure,
    save_verdict,
    verdict_to_json,
    write_json,
)
from .lp import lhv_feasible
from .quantum import born_family
from .scenario import Witness, check_nonsignaling, convert_family, extract_marginal_family

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; that code is reserved for
    # mathematical preconditions here, so usage problems map to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _read(path: str, load, **kwargs) -> tuple[dict, object]:
    """The run report of a command on the input file `path`, and `load` of
    that file, which reads it once; the report holds the SHA-256 of the
    bytes `load` parsed."""
    digest = hashlib.sha256()
    out = load(path, digest=digest, **kwargs)
    return {"input": path, "timings": {}, "digest": digest.hexdigest()}, out


def _timed(report: dict, stage: str, call, *args, **kwargs):
    """`call(*args, **kwargs)`, its wall time recorded as the report's `stage` timing."""
    t0 = time.perf_counter()
    out = call(*args, **kwargs)
    report["timings"][stage] = time.perf_counter() - t0
    return out


def _witness_json(witness: Witness) -> dict:
    """The witness's fields as the report's keys; `write_json` lays tuples out as lists."""
    return {**dataclasses.asdict(witness),
            "max_discrepancy": numeric.format_scalar(witness.max_discrepancy)}


def _emit(report: dict, lines: list[str], args) -> None:
    if args.json:
        write_json(report, sys.stdout)
    else:
        for line in lines:
            print(line)


def _family_for(args) -> tuple[dict, object]:
    """The run report and the family of a command on `args.family`, in
    `args.mode` when the command has one and it is set."""
    report, family = _read(args.family, load_family, tol=args.tol)
    if getattr(args, "mode", None) and args.mode != family.mode:
        family = convert_family(family, args.mode, tol=args.tol)
    return report, family


def cmd_check(args) -> int:
    report, family = _family_for(args)
    witness = _timed(report, "check", check_nonsignaling, family)
    passed = witness is None
    report["consistency"] = {"passed": passed, "witness": None if passed else _witness_json(witness)}
    if passed:
        _emit(report, ["consistency: pass"], args)
        return EXIT_OK
    lines = [
        "consistency: FAIL",
        f"  site subset {witness.site_subset} at settings {witness.common_settings}: "
        f"tuples {witness.tuple_a} vs {witness.tuple_b} "
        f"disagree by {numeric.format_scalar(witness.max_discrepancy)}",
    ]
    _emit(report, lines, args)
    if args.json:
        print("consistency check failed", file=sys.stderr)
    return EXIT_PRECONDITION


def cmd_build(args) -> int:
    report, family = _family_for(args)
    marginals = _timed(report, "check", extract_marginal_family, family)
    report["consistency"] = {"passed": True, "witness": None}

    model = _timed(report, "build", build_deterministic_measure, marginals, budget=args.budget)
    measure = model.measure
    construction = {
        "atom_count": int(measure.numerators.size),
        "normalization": numeric.format_scalar(measure.total_mass),
        "min_atom": numeric.format_scalar(measure.min_atom),
        "total_variation": numeric.format_scalar(jordan_decompose(measure).total_variation),
    }
    report["construction"] = construction

    check = _timed(report, "verify", verify_marginals, model, family)
    report["verification"] = {"max_error": numeric.format_scalar(check.max_error)}

    save_measure(measure, args.out)
    report["output"] = args.out
    lines = [
        "consistency: pass",
        f"atoms: {construction['atom_count']}",
        f"normalization: {construction['normalization']}",
        f"min atom: {construction['min_atom']}",
        f"total variation: {construction['total_variation']}",
        f"max marginal error: {numeric.format_scalar(check.max_error)}",
        f"wrote measure to {args.out}",
    ]
    _emit(report, lines, args)
    return EXIT_OK


def cmd_quantum(args) -> int:
    report, scenario = _read(args.scenario, load_quantum)
    family = _timed(report, "born", born_family, scenario)
    save_family(family, args.out)
    report["output"] = args.out
    report["family"] = {"parties": family.scenario.n_parties, "tables": family.scenario.n_tuples}
    _emit(report, [
        f"generated {family.scenario.n_tuples} tables for "
        f"{family.scenario.n_parties} sites",
        f"wrote family to {args.out}",
    ], args)
    return EXIT_OK


def cmd_lhv(args) -> int:
    report, family = _family_for(args)
    verdict = _timed(report, "lhv", lhv_feasible, family, budget=args.budget)
    report["lhv"] = {"feasible": verdict.feasible, "residual": numeric.format_scalar(verdict.residual)}
    lines = [f"verdict: {'feasible' if verdict.feasible else 'infeasible'}"]
    if args.out:
        save_verdict(verdict, args.out)
        report["output"] = args.out
        lines.append(f"wrote verdict to {args.out}")
    elif args.json:
        report["lhv"]["verdict"] = verdict_to_json(verdict)
    _emit(report, lines, args)
    return EXIT_OK


def cmd_expect(args) -> int:
    report, family = _family_for(args)
    setting_tuple = parse_tuple_key(args.tuple)
    try:
        observables = json.loads(args.observables)
    except json.JSONDecodeError as exc:
        raise InputError(f"--observables is not valid JSON: {exc}") from exc
    value = _timed(report, "expect", product_expectation_family, family, setting_tuple, observables)
    report["expectation"] = {"tuple": list(setting_tuple), "value": numeric.format_scalar(value)}
    lines = [f"expectation at {args.tuple}: {numeric.format_scalar(value)}"]
    if args.compare_model:
        model_value = _timed(report, "model", lambda: product_expectation_model(
            build_deterministic_measure(family, budget=args.budget), setting_tuple, observables))
        report["expectation"]["model_value"] = numeric.format_scalar(model_value)
        lines.append(f"measure-side value: {numeric.format_scalar(model_value)}")
    _emit(report, lines, args)
    return EXIT_OK


def cmd_random(args) -> int:
    report = {"seed": args.seed, "timings": {}}
    weights = None
    if args.weights:
        weights = [w.strip() for w in args.weights.split(",")]
    family = _timed(report, "random", random_nonsignaling_family, args.seed, weights=weights,
                    mode=args.mode or numeric.RATIONAL)
    save_family(family, args.out)
    report["output"] = args.out
    _emit(report, [f"wrote seeded family to {args.out}"], args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lqhv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, out_required=None, tol=True):
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="comparison tolerance of float families, finite and "
                                "nonnegative (default LQHV_TOL, else 1e-9); rational "
                                "families always compare exactly")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        if out_required is not None:
            p.add_argument("--out", "-o", required=out_required,
                           help="output file path")

    p = sub.add_parser("check", help="consistency check of a family file")
    p.add_argument("family")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="construct, verify and export the signed measure")
    p.add_argument("family")
    p.add_argument("--mode", choices=list(numeric.MODES), default=None,
                   help="convert the family to this arithmetic before building")
    p.add_argument("--budget", type=int, default=DEFAULT_ATOM_BUDGET,
                   help="maximum joint-space atom count")
    common(p, out_required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("quantum", help="derive the Born-rule family of a quantum file")
    p.add_argument("scenario")
    common(p, out_required=True, tol=False)
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("lhv", help="decide positive-measure feasibility")
    p.add_argument("family")
    p.add_argument("--mode", choices=list(numeric.MODES), default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_ATOM_BUDGET)
    common(p, out_required=False)
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("expect", help="product expectation of per-site observables")
    p.add_argument("family")
    p.add_argument("--tuple", required=True, help="setting tuple, e.g. 1,2")
    p.add_argument("--observables", required=True,
                   help='JSON per-site value lists, e.g. [[1,-1],[1,-1]]')
    p.add_argument("--mode", choices=list(numeric.MODES), default=None)
    p.add_argument("--compare-model", action="store_true",
                   help="also evaluate on the constructed measure")
    p.add_argument("--budget", type=int, default=DEFAULT_ATOM_BUDGET)
    common(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("random", help="emit a seeded random nonsignaling family")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", default=None,
                   help="24 comma-separated vertex weights (16 local, then 8 XOR boxes)")
    p.add_argument("--mode", choices=list(numeric.MODES), default=None)
    common(p, out_required=True, tol=False)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except AtomBudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SignalingError, RepresentationError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LqhvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
