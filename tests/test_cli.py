"""Command-line pipeline: exit codes, reports, idempotence."""

import errno
import hashlib
import json
import os
import random
import shutil
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L
from lqhv import cli, io, lp, scenario
from lqhv.cli import main


PR_BOX_JSON = io.family_to_json(L.pr_box())
SIGNALING_FLOAT_JSON = io.family_to_json(L.signaling_example(L.FLOAT))
CHSH_QUANTUM_JSON = io.quantum_to_json(L.chsh_optimal_scenario())


@pytest.fixture()
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    io.save_family(L.pr_box(), str(path))
    return str(path)


@pytest.fixture()
def signaling_file(tmp_path):
    path = tmp_path / "signal.json"
    io.save_family(L.signaling_example(), str(path))
    return str(path)


class TestCheck:
    def test_pass_exits_zero(self, pr_file, capsys):
        assert main(["check", pr_file]) == 0
        assert "pass" in capsys.readouterr().out

    def test_signaling_exits_two_with_witness(self, signaling_file, capsys):
        assert main(["check", signaling_file]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "(2,)" in out

    def test_output_format_is_per_call(self, pr_file, capsys):
        # the parser is built once per process; no option value may carry
        # over from one call to the next
        assert main(["check", pr_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["consistency"]["passed"] is True
        assert main(["check", pr_file]) == 0
        assert capsys.readouterr().out == "consistency: pass\n"

    def test_claimed_tuples_counted_before_listing(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("setting tuples were materialized")

        monkeypatch.setattr(L.Scenario, "setting_tuples", refuse)
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"parties": [{"settings": 100, "outcomes": 2}] * 3,
                                    "mode": "rational", "tables": {}}))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "0 tables given for 1000000 setting tuples" in err

    def test_truncated_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"parties": [{"settings": 2')
        assert main(["check", str(path)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_keys_naming_one_tuple_exit_one(self, tmp_path, capsys):
        data = io.family_to_json(L.pr_box())
        data["tables"]["01,1"] = ["1/4"] * 4
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 1
        assert "'1,1' and '01,1'" in capsys.readouterr().err

    def test_repeated_key_exits_one(self, tmp_path, capsys):
        # json.load alone keeps the last "1,1" table and the check passes
        tables = json.dumps(io.family_to_json(L.pr_box())["tables"])
        uniform = json.dumps(["1/4"] * 4)
        path = tmp_path / "twice.json"
        path.write_text('{"parties": [{"settings": 2, "outcomes": 2}, '
                        '{"settings": 2, "outcomes": 2}], "mode": "rational", '
                        f'"tables": {{"1,1": {uniform}, {tables[1:]}}}')
        assert main(["check", str(path)]) == 1
        assert "input error: key '1,1' appears twice" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        # a 5,000-digit JSON integer in a table: json.load raises ValueError
        path = tmp_path / "long.json"
        path.write_text(json.dumps(PR_BOX_JSON).replace('"1/2"', "1" + "0" * 4999, 1))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "too long to read" in err
        assert "Traceback" not in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/no/such/file.json"]) == 1

    def test_signaling_json_report_carries_the_witness(self, signaling_file, capsys):
        assert main(["check", signaling_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "consistency check failed\n"
        consistency = json.loads(captured.out)["consistency"]
        witness = L.check_nonsignaling(L.signaling_example())
        assert consistency == {"passed": False, "witness": {
            "site_subset": [2], "common_settings": list(witness.common_settings),
            "tuple_a": list(witness.tuple_a), "tuple_b": list(witness.tuple_b),
            "max_discrepancy": "1"}}

    def test_json_report(self, pr_file, capsys):
        assert main(["check", pr_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistency"]["passed"] is True
        assert len(report["digest"]) == 64
        assert "check" in report["timings"]

    def test_the_digest_names_the_bytes_checked(self, pr_file, signaling_file, capsys,
                                                monkeypatch):
        # the input file is replaced by a signaling family once it is first opened
        with open(pr_file, "rb") as fh:
            original = fh.read()
        opened, real_open = [], open

        def replacing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if file == pr_file:
                opened.append(file)
                os.replace(shutil.copy(signaling_file, pr_file + ".new"), pr_file)
            return fh

        monkeypatch.setattr("builtins.open", replacing_open)
        assert main(["check", pr_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert opened == [pr_file]
        assert report["digest"] == hashlib.sha256(original).hexdigest()


class TestBuild:
    def test_pr_box_report(self, pr_file, tmp_path, capsys):
        out_path = tmp_path / "measure.json"
        assert main(["build", pr_file, "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "min atom: -1/16" in out
        assert "total variation: 2" in out
        assert "max marginal error: 0" in out
        measure = io.load_measure(str(out_path))
        assert measure.min_atom == Fraction(-1, 16)

    def test_signaling_exits_two_without_output(self, signaling_file, tmp_path, capsys):
        out_path = tmp_path / "never.json"
        assert main(["build", signaling_file, "-o", str(out_path)]) == 2
        assert not out_path.exists()
        assert "precondition failed" in capsys.readouterr().err

    def test_budget_exits_three(self, pr_file, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main(["build", pr_file, "-o", str(out_path), "--budget", "4"]) == 3
        assert not out_path.exists()
        assert "resource limit" in capsys.readouterr().err

    def test_uniform_family_all_atoms_equal(self, tmp_path, capsys):
        fam_path = tmp_path / "uniform.json"
        io.save_family(L.uniform_family(L.CHSH_SCENARIO), str(fam_path))
        out_path = tmp_path / "m.json"
        assert main(["build", str(fam_path), "-o", str(out_path)]) == 0
        measure = io.load_measure(str(out_path))
        assert set(measure.atoms.reshape(-1)) == {Fraction(1, 16)}

    def test_mode_flag_converts(self, pr_file, tmp_path):
        out_path = tmp_path / "float.json"
        assert main(["build", pr_file, "-o", str(out_path), "--mode", "float"]) == 0
        measure = io.load_measure(str(out_path))
        assert measure.mode == L.FLOAT
        assert measure.min_atom == pytest.approx(-1 / 16)

    def test_export_import_reverify_idempotent(self, pr_file, tmp_path, capsys):
        # one pipeline pass, then reload the export and rebuild: the
        # reports and the files must agree bit for bit in rational mode
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["build", pr_file, "-o", str(out_a), "--json"]) == 0
        report_a = json.loads(capsys.readouterr().out)
        assert main(["build", pr_file, "-o", str(out_b), "--json"]) == 0
        report_b = json.loads(capsys.readouterr().out)
        for key in ("construction", "verification", "consistency", "digest"):
            assert report_a[key] == report_b[key]
        assert out_a.read_text() == out_b.read_text()
        # independent re-verification of the exported measure
        measure = io.load_measure(str(out_a))
        family = io.load_family(pr_file)
        assert L.verify_marginals(measure, family).max_error == 0


class TestQuantum:
    def test_chsh_pipeline(self, tmp_path, capsys):
        q_path = tmp_path / "singlet.json"
        io.save_quantum(L.chsh_optimal_scenario(), str(q_path))
        fam_path = tmp_path / "family.json"
        assert main(["quantum", str(q_path), "-o", str(fam_path)]) == 0
        fam = io.load_family(str(fam_path))
        assert L.chsh_value(fam) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_malformed_quantum_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rho": []}')
        assert main(["quantum", str(path), "-o", str(tmp_path / "f.json")]) == 1
        assert "input error" in capsys.readouterr().err


class TestLhv:
    def test_pr_infeasible(self, pr_file, tmp_path, capsys):
        verdict_path = tmp_path / "verdict.json"
        assert main(["lhv", pr_file, "-o", str(verdict_path)]) == 0
        assert "infeasible" in capsys.readouterr().out
        data = json.loads(verdict_path.read_text())
        assert data["feasible"] is False
        assert data["certificate"] is not None

    def test_product_feasible(self, tmp_path, capsys):
        fam_path = tmp_path / "uniform.json"
        io.save_family(L.uniform_family(L.CHSH_SCENARIO), str(fam_path))
        assert main(["lhv", str(fam_path)]) == 0
        assert "verdict: feasible" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [L.pr_box, lambda: L.uniform_family(L.CHSH_SCENARIO)],
                             ids=["infeasible", "feasible"])
    def test_json_report_embeds_the_verdict_file(self, make, tmp_path, capsys):
        path = tmp_path / "family.json"
        io.save_family(make(), str(path))
        assert main(["lhv", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "output" not in report
        verdict_path = tmp_path / "verdict.json"
        assert main(["lhv", str(path), "-o", str(verdict_path)]) == 0
        assert report["lhv"]["verdict"] == json.loads(verdict_path.read_text())

    def test_signaling_exits_two(self, signaling_file):
        assert main(["lhv", signaling_file]) == 2

    def test_rational_mode_names_the_decimal_reading(self, tmp_path, capsys):
        # the shortest decimals of a random float family's entries sum past 1
        path = tmp_path / "f5.json"
        scenario = L.Scenario((2,) * 5, (2,) * 5)
        io.save_family(L.random_scenario_family(scenario, 0, L.FLOAT), str(path))
        verdict_path = tmp_path / "verdict.json"
        assert main(["lhv", str(path), "--mode", "rational", "-o", str(verdict_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("input error: float entries read as their shortest decimals: "
                       "table (1, 1, 1, 1, 1) sums to 500000000000000019/500000000000000000, "
                       "not 1 (tables are never renormalized)\n")
        assert not verdict_path.exists()

    def test_pivot_budget_exits_three(self, pr_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp, "PIVOT_BUDGET", 0)
        verdict_path = tmp_path / "verdict.json"
        assert main(["lhv", pr_file, "-o", str(verdict_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: simplex reached 0 pivots")
        assert "Traceback" not in err
        assert not verdict_path.exists()


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` so that every call through the binding is counted."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestLayerCalls:
    """Each command reaches each layer once, through the bindings a tracer wraps."""

    def test_build_checks_once(self, pr_file, tmp_path, monkeypatch, capsys):
        calls = [count_calls(monkeypatch, cli, "extract_marginal_family"),
                 count_calls(monkeypatch, cli, "build_deterministic_measure"),
                 count_calls(monkeypatch, scenario, "check_nonsignaling")]
        assert main(["build", pr_file, "-o", str(tmp_path / "measure.json")]) == 0
        assert [len(c) for c in calls] == [1, 1, 1]

    def test_build_validates_tables_once(self, pr_file, tmp_path, monkeypatch, capsys):
        # the marginal family takes over the loaded family's checked tables
        calls = count_calls(monkeypatch, scenario.DistributionFamily, "_adopt")
        assert main(["build", pr_file, "-o", str(tmp_path / "measure.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("feasible", [False, True])
    def test_lhv_assembles_once(self, feasible, tmp_path, monkeypatch, capsys):
        path = tmp_path / "family.json"
        io.save_family(L.uniform_family(L.CHSH_SCENARIO) if feasible else L.pr_box(), str(path))
        calls = count_calls(monkeypatch, lp, "marginal_matrix")
        assert main(["lhv", str(path)]) == 0
        assert len(calls) == 1


class TestExpect:
    def test_constant_observables(self, pr_file, capsys):
        code = main(["expect", pr_file, "--tuple", "1,1",
                     "--observables", '[["1","1"],["1","1"]]'])
        assert code == 0
        assert "expectation at 1,1: 1" in capsys.readouterr().out

    def test_pr_correlator_with_model(self, pr_file, capsys):
        code = main(["expect", pr_file, "--tuple", "2,2",
                     "--observables", '[["1","-1"],["1","-1"]]', "--compare-model"])
        assert code == 0
        out = capsys.readouterr().out
        assert "expectation at 2,2: -1" in out
        assert "measure-side value: -1" in out

    def test_bad_observables_exit_one(self, pr_file):
        assert main(["expect", pr_file, "--tuple", "1,1", "--observables", "[[1,"]) == 1


class TestRandom:
    def test_seeded_family_is_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["random", "--seed", "7", "-o", str(a)]) == 0
        assert main(["random", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()
        fam = io.load_family(str(a))
        assert L.check_nonsignaling(fam) is None

    def test_explicit_weights(self, tmp_path):
        out = tmp_path / "w.json"
        weights = ",".join(["0"] * 16 + ["1"] + ["0"] * 7)
        assert main(["random", "--seed", "0", "--weights", weights, "-o", str(out)]) == 0
        fam = io.load_family(str(out))
        assert L.chsh_value(fam) == 4

    def test_float_weights_whose_sum_overflows_exit_one(self, tmp_path, capsys):
        # each weight is finite, but their float total is inf
        out = tmp_path / "w.json"
        weights = ",".join(["1e308"] * 24)
        argv = ["random", "--seed", "1", "--mode", "float", "--weights", weights, "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: weights sum to inf")
        assert "Traceback" not in err
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


class TestUndecodableFile:
    @pytest.mark.parametrize("command", [
        "check", "build", "lhv", "expect --tuple 1,1 --observables [[1,-1],[1,-1]]", "quantum"])
    def test_bytes_that_are_not_utf8_exit_one(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        words = command.split()
        argv = [words[0], str(path), *words[1:]]
        if words[0] in ("build", "quantum"):
            argv += ["-o", str(tmp_path / "out.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"{path} is not valid UTF-8 JSON" in err


class TestMalformedStructure:
    @pytest.mark.parametrize("command,data,message", [
        ("check", {**PR_BOX_JSON, "tables": [["1/4"] * 4] * 4},
         "'tables' must map setting tuples to entry lists"),
        ("quantum", {**CHSH_QUANTUM_JSON, "site_dims": 2}, "'site_dims' must be a list"),
        ("quantum", {**CHSH_QUANTUM_JSON, "povms": {"1": []}},
         "'povms' must hold one setting list per site"),
        ("quantum", {**CHSH_QUANTUM_JSON, "povms": [CHSH_QUANTUM_JSON["povms"][0], [3]]},
         "site 2 setting 1: expected a list of effects"),
    ], ids=["tables", "site-dims", "povms", "effects"])
    def test_wrong_container_exits_one(self, command, data, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["-o", str(tmp_path / "out.json")] if command == "quantum" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"


class TestMalformedCounts:
    @pytest.mark.parametrize("command,data", [
        ("check", {"parties": [{"settings": "x", "outcomes": 2}], "mode": "rational", "tables": {}}),
        ("check", {"parties": [{"settings": 2, "outcomes": None}], "mode": "rational", "tables": {}}),
        ("check", {"parties": [{"settings": [2], "outcomes": 2}], "mode": "rational", "tables": {}}),
        ("check", {"parties": [{"settings": float("inf"), "outcomes": 2}], "mode": "float",
                   "tables": {}}),
        ("check", {"parties": [{"settings": 2.5, "outcomes": 2}], "mode": "rational", "tables": {}}),
        ("check", {"parties": [{"settings": True, "outcomes": 2}], "mode": "rational", "tables": {}}),
        ("lhv", {"parties": [{"settings": 2, "outcomes": "two"}], "mode": "float", "tables": {}}),
        ("quantum", {"site_dims": ["x"], "rho": [[[1, 0]]], "povms": [[[[[[1, 0]]]]]]}),
    ])
    def test_non_integer_counts_exit_one(self, command, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["-o", str(tmp_path / "out.json")] if command == "quantum" else [])
        assert main(argv) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command,data", [
        ("quantum", {"site_dims": [2], "rho": [[[1, 0], [0, 0]], [[0, 0]]],
                     "povms": [[[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]]]}),
        ("quantum", {"site_dims": [2], "rho": [1, 2], "povms": []}),
        ("check", {"parties": [{"settings": 1, "outcomes": 2}], "mode": "float",
                   "tables": {"1": [10**400, 0]}}),
        ("check", {"parties": [{"settings": 1, "outcomes": 2}], "mode": "rational",
                   "tables": {"1": False}}),
        ("check", {"parties": [{"settings": 1, "outcomes": 2}], "mode": "rational",
                   "tables": {"1": [True, False]}}),
        ("check", {"parties": [{"settings": 1, "outcomes": 2}], "mode": "float",
                   "tables": {"1": [True, False]}}),
        # a bad tolerance is malformed input: it must neither pass a
        # signaling family nor be reported as a bad table
        *(pytest.param(f"{command} --tol {tol}", SIGNALING_FLOAT_JSON,
                       id=f"{command}-tol{tol}")
          for command in ("check", "build", "lhv") for tol in ("inf", "-1", "nan")),
        pytest.param("LQHV_TOL=inf check", SIGNALING_FLOAT_JSON, id="check-LQHV_TOL=inf"),
        pytest.param("expect --tuple 1,1 --observables 5", PR_BOX_JSON, id="expect-observables5"),
        pytest.param("expect --tuple 1,1 --observables null", PR_BOX_JSON,
                     id="expect-observablesnull"),
        # quantum and random take no tolerance: the flag itself is refused
        pytest.param("quantum --tol inf", CHSH_QUANTUM_JSON, id="quantum-tolinf"),
        pytest.param("random --seed 1 --tol nan", PR_BOX_JSON, id="random-tolnan"),
        # a rational entry with a huge exponent is refused before any power
        # of ten is computed, in a family file and in --weights
        *(pytest.param("check", {"parties": [{"settings": 1, "outcomes": 2}], "mode": "rational",
                                 "tables": {"1": [entry, "1/2"]}}, id=f"check-{entry}")
          for entry in ("1e400000000", "1e-3000000", "1e5000")),
        pytest.param("random --seed 1 --weights 1e400000000,1", PR_BOX_JSON,
                     id="random-weights-exponent"),
    ])
    def test_malformed_entries_exit_one(self, command, data, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        words = command.split()
        for word in words:
            if "=" in word:
                monkeypatch.setenv(*word.split("=", 1))
        argv = [w for w in words if "=" not in w]
        if argv[0] != "random":
            argv.append(str(path))
        out = tmp_path / "out.json"
        if argv[0] in ("quantum", "build", "random"):
            argv += ["-o", str(out)]
        refused = argv[0] in ("quantum", "random") and "--tol" in argv
        if refused:  # a usage error, raised by the parser like an unknown command
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        else:
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --tol" if refused else "input error") in err
        if "tol" in command.lower():
            assert "tol" in err.lower()
        assert not out.exists()


def drift_json(shift):
    """Float CHSH family whose site-1 marginal moves by 2 * shift with site 2's setting."""
    tables = {io.tuple_key(t): [0.25 + (shift if t[1] == 2 else -shift), 0.25,
                                0.25 - (shift if t[1] == 2 else -shift), 0.25]
              for t in L.CHSH_SCENARIO.setting_tuples()}
    return {"parties": [{"settings": 2, "outcomes": 2}] * 2, "mode": "float", "tables": tables}


class TestToleranceReachesEveryCommand:
    """The family read with --tol or LQHV_TOL carries that tolerance into
    every step a command runs: a 2e-12 drift passes at 1e-9 and signals
    at 1e-15."""

    @pytest.mark.parametrize("command", [
        "check", "build", "build --mode float", "lhv",
        "expect --tuple 1,1 --observables [[1,-1],[1,-1]] --compare-model",
    ])
    @pytest.mark.parametrize("tol,env,code", [
        (None, None, 0), ("1e-9", None, 0), ("1e-15", None, 2), (None, "1e-15", 2),
    ], ids=["default", "tol1e-9", "tol1e-15", "LQHV_TOL=1e-15"])
    def test_tolerance_decides_the_exit_code(self, command, tol, env, code, tmp_path,
                                             monkeypatch):
        monkeypatch.delenv("LQHV_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("LQHV_TOL", env)
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(drift_json(1e-12)))
        argv = command.split() + [str(path)] + (["--tol", tol] if tol else [])
        if argv[0] == "build":
            argv += ["-o", str(tmp_path / "measure.json")]
        assert main(argv) == code


class TestErrorsNameTheirTable:
    @pytest.mark.parametrize("mode,entry,message", [
        ("rational", "x", "table (1, 2): cannot parse rational entry 'x'"),
        ("float", [0.25], "table (1, 2): cannot interpret data as a float array"),
        # whole messages: a float file the one-pass read refuses keeps them
        ("float", True, "table (1, 2): true/false is not a number\n"),
        ("float", float("nan"), "table (1, 2): non-finite entry in float array\n"),
        ("float", 10**400, "table (1, 2): cannot interpret data as a float array: "
                           "int too large to convert to float\n"),
        ("float", [0.25, 0.25], "table (1, 2): cannot interpret data as a float array: "
                                "ragged lists, entry [2] has the rarest shape at its depth\n"),
    ])
    def test_bad_entry(self, mode, entry, message, tmp_path, capsys):
        doc = io.family_to_json(L.convert_family(L.uniform_family(L.CHSH_SCENARIO), mode))
        doc["tables"]["1,2"][2] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}")
        assert "(16,)" not in err

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_bad_size(self, mode, tmp_path, capsys):
        doc = io.family_to_json(L.convert_family(L.uniform_family(L.CHSH_SCENARIO), mode))
        doc["tables"]["2,1"].pop()
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == \
            "input error: table (2, 1): expected (2, 2) = 4 entries, got 3\n"


def test_long_common_denominator_exits_one(tmp_path, capsys):
    # two tables of 200 entries 1/q, each q a random odd 3300-bit number:
    # the lcm passes the integer digit limit after a handful of them
    rng = random.Random(0)
    q = lambda: rng.getrandbits(3300) | 1 << 3299 | 1
    doc = {"parties": [{"settings": 2, "outcomes": 200}], "mode": "rational",
           "tables": {s: [f"1/{q()}" for _ in range(200)] for s in ("1", "2")}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "common denominator has more than" in err


# the interpreter's limit on the digits of an integer written as text
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def product_family(bits, seed, sure_first=False):
    """Rational CHSH product family: each site's two settings give a coin
    over one random odd `bits`-bit denominator, the two sites' differing.
    With `sure_first`, site 1's first setting always gives its second outcome."""
    rng = random.Random(seed)
    dens = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(2)]
    coins = []
    for den in dens:
        heads = [rng.randrange(1, den) for _ in range(2)]
        coins.append([np.array([Fraction(h, den), Fraction(den - h, den)], dtype=object)
                      for h in heads])
    if sure_first:
        coins[0][0] = np.array([Fraction(0), Fraction(1)], dtype=object)
    return L.DistributionFamily(L.CHSH_SCENARIO, {
        (s, t): np.multiply.outer(coins[0][s - 1], coins[1][t - 1])
        for s, t in L.CHSH_SCENARIO.setting_tuples()})


class TestExportDigitLimit:
    """Only what is written is held to the integer digit limit: the
    reduced entries, not the unreduced denominator they are computed over."""

    def test_atoms_past_the_limit_exit_three(self, tmp_path, capsys):
        # family entries over 2409 digits: the reduced atoms have about 4800
        path, out = tmp_path / "big.json", tmp_path / "measure.json"
        io.save_family(product_family(4000, 0), str(path))
        assert 70_000 < path.stat().st_size < 80_000
        assert main(["build", str(path), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and f"more than {DIGIT_LIMIT} digits" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_long_unreduced_denominator_builds(self, tmp_path):
        # family entries over 903 digits: the measure's denominator, 4516
        # digits, passes the limit, its reduced atoms (at most 1805) do not
        family = product_family(1500, 0)
        assert 10**902 < family.denominator < 10**903
        measure = L.build_deterministic_measure(family).measure
        assert measure.denominator >= 10**DIGIT_LIMIT
        path, out = tmp_path / "mid.json", tmp_path / "measure.json"
        io.save_family(family, str(path))
        assert main(["build", str(path), "-o", str(out)]) == 0
        assert np.array_equal(io.load_measure(str(out)).atoms, measure.atoms)


class TestFailedExportLeavesNoFile:
    """A write that fails after the output file is opened removes it."""

    def test_entry_past_the_limit_in_the_second_chunk_exits_three(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the first 8 of the 16 atoms are 0; the rest have over 4500 digits
        family = product_family(5000, 0, sure_first=True)
        measure = L.build_deterministic_measure(family).measure
        assert not measure.numerators.reshape(-1)[:8].any()
        path, out = tmp_path / "sure.json", tmp_path / "measure.json"
        io.save_family(family, str(path))
        out.write_text("an older file")
        monkeypatch.setattr(io, "_CHUNK", 8)
        assert main(["build", str(path), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and f"more than {DIGIT_LIMIT} digits" in err
        assert not out.exists()

    def test_os_error_mid_write_exits_one(self, pr_file, tmp_path, capsys, monkeypatch):
        real_open, writes = open, []

        def full_disk_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            real_write = fh.write

            def write(text):
                writes.append(text)
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_write(text)

            fh.write = write
            return fh

        out = tmp_path / "measure.json"
        monkeypatch.setattr(io, "open", full_disk_open, raising=False)
        assert main(["build", pr_file, "-o", str(out)]) == 1
        assert len(writes) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write ") and "No space left" in err
        assert not out.exists()


def test_float_build_peaks_near_the_measure(tmp_path):
    # (5,5)/(4,4): 1,048,576 atoms, 8 MiB of float64
    family = L.random_scenario_family(L.Scenario((5, 5), (4, 4)), 3, L.FLOAT)
    path, out = tmp_path / "family.json", tmp_path / "measure.json"
    io.save_family(family, str(path))
    tracemalloc.start()
    try:
        assert main(["build", str(path), "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * family.scenario.joint_size * 8


class TestBuiltMassTolerance:
    """A measure's mass is checked within the family's tolerance, floored at 1e-12."""

    def test_family_passing_check_builds(self, tmp_path, monkeypatch):
        # every table sums to 1 + 5e-10, inside the default 1e-9
        monkeypatch.delenv("LQHV_TOL", raising=False)
        tables = {io.tuple_key(t): [0.25 + 1.25e-10] * 4 for t in L.CHSH_SCENARIO.setting_tuples()}
        path, out = tmp_path / "heavy.json", tmp_path / "measure.json"
        path.write_text(json.dumps({"parties": [{"settings": 2, "outcomes": 2}] * 2,
                                    "mode": "float", "tables": tables}))
        for argv in (["check"], ["lhv"], ["build", "-o", str(out)]):
            assert main(argv[:1] + [str(path)] + argv[1:]) == 0
        assert io.load_measure(str(out)).total_mass == pytest.approx(1 + 5e-10, abs=1e-15)

    def test_random_float_family_builds_at_a_tight_tolerance(self, tmp_path):
        path, out = tmp_path / "random.json", tmp_path / "measure.json"
        assert main(["random", "--seed", "3", "--mode", "float", "-o", str(path)]) == 0
        assert main(["build", str(path), "--tol", "1e-15", "-o", str(out)]) == 0
