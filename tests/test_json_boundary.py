"""One implementation per rule where JSON documents enter and leave.

`json` lays out every written document and `write_json` streams each
scalar list into it; `numeric._rational_pair` is the one reader of a
rational value, and `coerce_scalar` in rational mode is its Fraction.
The second half covers the containers, weights, ragged data in both
modes, quantum items of the wrong type and certificates that callers
hand the library, and refusals that no other test reaches.
"""

import io as stdio
import json
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import lqhv as L
from lqhv import io, numeric
from lqhv.cli import main
from lqhv.errors import InputError, LqhvError

DIGIT_LIMIT = numeric._digit_limit()


def written(value) -> str:
    buf = stdio.StringIO()
    io.write_json(value, buf)
    return buf.getvalue()


class TestWriterLayout:
    def test_json_lays_out_each_document_once(self):
        doc = io.measure_to_json(L.build_deterministic_measure(L.pr_box()).measure)
        with mock.patch.object(io.json, "dumps", wraps=json.dumps) as dumps:
            text = written(doc)
        layouts = [call for call in dumps.call_args_list
                   if call.kwargs.get("indent") == 2 and call.kwargs.get("sort_keys")]
        assert len(layouts) == 1
        assert text == json.dumps({**doc, "atoms": list(doc["atoms"])}, indent=2,
                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        {"a": "\x00" + "0" * 32, "b": [1, 2]},
        ["\x00", ["\x00x", 3], {"k": ["\x00"]}],
        {"outer": {"inner": [[1.5, 2.5], []], "t": (1, "x")}},
        [[[1, 2]]],
    ], ids=["nul-text", "nul-lists", "nested", "deep"])
    def test_text_holding_a_nul_is_written_as_json_writes_it(self, value):
        assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_keys_must_be_text_at_any_depth(self):
        with pytest.raises(TypeError):
            written([{"a": {2: 1}}])


class TestOneRationalReader:
    @pytest.mark.parametrize("value", [
        "3/6", "-0", "007/014", " 1/2 ", "+1/2", "1_0/3", "0.45", "1e-3", "9e4299",
        5, np.int64(-7), Fraction(3, 9), 0.45, np.float32(0.1), 1e16, 5e-324, -0.0,
    ], ids=repr)
    def test_coerce_scalar_is_the_pairs_fraction(self, value):
        p, q = numeric._rational_pair(value)
        assert q > 0 and Fraction(p, q) == numeric.coerce_scalar(value, L.RATIONAL)
        assert (p, q) == (Fraction(p, q).numerator, Fraction(p, q).denominator)

    @pytest.mark.parametrize("value,message", [
        (True, "True is not a number"),
        (np.bool_(False), f"{np.bool_(False)!r} is not a number"),
        ("x", "cannot parse rational entry 'x'"),
        ("1/0", "cannot parse rational entry '1/0'"),
        (float("nan"), "non-finite entry nan"),
        (float("-inf"), "non-finite entry -inf"),
        (None, "cannot interpret None as a rational"),
        ([1], "cannot interpret [1] as a rational"),
        ("1e5000", f"cannot parse rational entry '1e5000': its exponent and digits exceed "
                   f"{DIGIT_LIMIT}"),
    ], ids=["bool", "numpy-bool", "text", "zero-denominator", "nan", "inf", "none", "list",
            "exponent"])
    def test_refusals_keep_their_words(self, value, message):
        for read in (numeric._rational_pair, lambda v: numeric.coerce_scalar(v, L.RATIONAL)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                read(value)

    def test_strict_text_past_the_digit_limit_is_refused(self):
        text = "1/" + "7" * (DIGIT_LIMIT + 1)
        with pytest.raises(InputError, match=re.escape("cannot parse rational entry")):
            numeric._rational_pair(text)
        with pytest.raises(InputError, match=re.escape("cannot parse rational entry")):
            numeric.numerators([text], L.RATIONAL)

    def test_long_strict_text_under_the_limit_is_exact(self):
        q = int("3" * 700)
        assert numeric._rational_pair(f"-{2 * q}/{4 * q}") == (-1, 2)
        assert numeric.numerators([f"1/{q}", f"{q - 1}/{q}"], L.RATIONAL)[1] == q


class TestMixtureWeights:
    @pytest.mark.parametrize("call", [
        lambda: L.mix_families([L.pr_box()], 5),
        lambda: L.random_nonsignaling_family(1, weights=5),
        lambda: L.random_nonsignaling_family(1, weights=5, mode="float"),
        lambda: L.mix_families([L.pr_box()], [[1]]),
        lambda: L.mix_families([L.pr_box("float")], {"a": 1}),
        lambda: L.mix_families([L.pr_box()], (w for w in [1])),
    ], ids=["int", "random-int", "random-float-int", "nested", "dict", "generator"])
    def test_anything_but_a_flat_list_is_refused_by_name(self, call):
        with pytest.raises(InputError, match=r"^weights "):
            call()

    def test_a_bad_entry_is_named_with_the_weights(self):
        with pytest.raises(InputError, match=re.escape("weights [1, 'x']: cannot parse "
                                                       "rational entry 'x'")):
            L.mix_families([L.pr_box(), L.pr_box()], [1, "x"])

    def test_float_mixture_keeps_its_bits(self):
        parts = [L.pr_box("float"), L.uniform_family(L.CHSH_SCENARIO, "float"),
                 L.chsh_local_vertices("float")[5]]
        weights = [0.1, 0.7, np.float64(0.2)]
        total = sum(map(float, weights))
        expected = sum(float(w) / total * (f.numerators / f.denominator)
                       for w, f in zip(weights, parts))
        mixed = L.mix_families(parts, weights)
        assert mixed.numerators.tobytes() == np.asarray(expected, dtype=float).tobytes()

    def test_numpy_weights_mix_exactly(self):
        mixed = L.mix_families([L.pr_box(), L.uniform_family(L.CHSH_SCENARIO)], np.array([1, 3]))
        # 1/4 of the PR box's (1/2, 0, 0, 1/2) plus 3/4 of white noise
        assert mixed.table((1, 1)).tolist() == [[Fraction(5, 16), Fraction(3, 16)],
                                                [Fraction(3, 16), Fraction(5, 16)]]


class TestUnreadContainers:
    @pytest.mark.parametrize("call,name", [
        (lambda: L.StochasticLqHVModel([1], 5), "conditionals"),
        (lambda: L.StochasticLqHVModel([1], [5]), "site 1 conditionals"),
        (lambda: L.POVM(5), "POVM effects"),
        (lambda: L.QuantumScenario(L.maximally_mixed(2), 5), "povms"),
        (lambda: L.QuantumScenario(L.maximally_mixed(2), [5]), "site 1 POVMs"),
    ], ids=["conditionals", "site-conditionals", "effects", "povms", "site-povms"])
    def test_a_container_that_is_not_a_list_is_named(self, call, name):
        with pytest.raises(InputError, match=f"^{re.escape(name)} must be a list, got 5$"):
            call()

    @pytest.mark.parametrize("call,message", [
        (lambda: L.QuantumScenario(L.maximally_mixed(2), [[5]]),
         "site 1 setting 1 must be a POVM, got int"),
        (lambda: L.QuantumScenario(L.maximally_mixed(2),
                                   [[L.projective_qubit_povm((0, 0, 1)), np.eye(2)]]),
         "site 1 setting 2 must be a POVM, got ndarray"),
        (lambda: L.QuantumScenario(5, [[L.projective_qubit_povm((0, 0, 1))]]),
         "rho must be a DensityMatrix, got int"),
        (lambda: L.QuantumScenario(np.eye(2) / 2, [[L.projective_qubit_povm((0, 0, 1))]]),
         "rho must be a DensityMatrix, got ndarray"),
    ], ids=["povm-int", "povm-matrix", "rho-int", "rho-matrix"])
    def test_an_item_of_the_wrong_type_is_named(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    def test_tuples_and_arrays_still_read(self):
        effects = L.projective_qubit_povm((0.0, 0.0, 1.0)).effects
        assert L.POVM(effects).n_outcomes == L.POVM(np.array(effects)).n_outcomes == 2
        model = L.StochasticLqHVModel((1,), ((np.array([[1, 0]]),),))
        assert model.conditionals[0][0].tolist() == [[1, 0]]


def ragged_rho():
    doc = io.quantum_to_json(L.chsh_optimal_scenario())
    doc["rho"][0][0] = [1.0]
    return doc


class TestRaggedFloatData:
    @pytest.mark.parametrize("data,path", [
        (ragged_rho()["rho"], "[0][0]"),
        ([0.5, [], 0.5], "[1]"),
        ([[0.5, 0.5], [0.5, [0.5]]], "[1][1]"),
        ([[1.0], [0.0, 0.0], [1.0, 2.0]], "[0]"),
    ], ids=["rho", "empty-entry", "deep-entry", "short-row"])
    def test_the_breaking_entry_is_named(self, data, path):
        with pytest.raises(InputError, match=re.escape(f"entry {path} has the rarest shape")):
            numeric.numerators(data, L.FLOAT)

    def test_other_float_refusals_keep_numpys_words(self):
        with pytest.raises(InputError, match=re.escape("could not convert string to float: 'x'")):
            numeric.numerators([[0.5, "x"]], L.FLOAT)

    def test_a_ragged_quantum_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(ragged_rho()))
        assert main(["quantum", str(path), "-o", str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: rho: ") and "[0][0]" in err
        assert "Traceback" not in err and not (tmp_path / "f.json").exists()


class TestRaggedRationalData:
    @pytest.mark.parametrize("data,path", [
        ([["1/2"], ["1/4", "3/4"]], "[0]"),
        (["1/2", [], "1/2"], "[1]"),
        ([["1/2", "1/2"], ["1/2", ["1/2"]]], "[1][1]"),
        ([["x", "1/2"], ["1/2", ["1/2"]]], "[1][1]"),
    ], ids=["short-row", "empty-entry", "deep-entry", "bad-entry-first"])
    def test_the_breaking_entry_is_named(self, data, path):
        with pytest.raises(InputError, match=re.escape(
                f"cannot interpret data as a rational array: ragged lists, entry {path} "
                "has the rarest shape")):
            numeric.numerators(data, L.RATIONAL)

    @pytest.mark.parametrize("data,message", [
        (["1/2", "x"], "cannot parse rational entry 'x'"),
        ([{}], "cannot interpret {} as a rational"),
        ([["1/2", True]], "True is not a number"),
    ], ids=["text", "object", "bool"])
    def test_regular_data_keeps_its_message(self, data, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            numeric.numerators(data, L.RATIONAL)

    def test_a_family_file_names_the_table_and_the_entry(self, tmp_path, capsys):
        doc = io.family_to_json(L.pr_box())
        doc["tables"]["2,1"][2] = ["0"]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: table (2, 1): cannot interpret data as a rational array")
        assert "entry [2] has the rarest shape" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_a_nested_table_names_the_path_within_it(self, mode):
        # the table is [[None, []]]: its rarest entry is None at [0][0], not [0]
        doc = io.family_to_json(L.convert_family(L.pr_box(), mode))
        doc["tables"]["2,2"] = [[None, []]]
        with pytest.raises(InputError, match=re.escape(
                "table (2, 2): cannot interpret data as a "
                f"{'rational' if mode == L.RATIONAL else 'float'} array: ragged lists, "
                "entry [0][0] has the rarest shape")):
            io.family_from_json(doc)


class TestCertificateGap:
    def test_a_list_and_an_array_give_one_gap(self):
        verdict = L.lhv_feasible(L.pr_box())
        certificate = verdict.certificate
        assert L.certificate_gap(certificate.tolist(), L.pr_box()) == \
            L.certificate_gap(certificate, L.pr_box()) > 0
        assert L.certificate_gap([1] * 16, L.pr_box()) == L.certificate_gap(np.ones(16),
                                                                            L.pr_box()) == 4

    @pytest.mark.parametrize("certificate,rows", [([1] * 3, 3), (np.zeros(17), 17), (5, 1)],
                             ids=["short-list", "long-array", "scalar"])
    def test_a_wrong_length_keeps_its_message(self, certificate, rows):
        with pytest.raises(InputError, match=re.escape(f"certificate has {rows} rows, "
                                                       "family needs 16")):
            L.certificate_gap(certificate, L.pr_box())


class TestUnreachedRefusals:
    def test_a_bare_package_error_exits_one(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "pr.json"
        io.save_family(L.pr_box(), str(path))

        def failing_load(*args, **kwargs):
            raise LqhvError("no reader for this family")

        monkeypatch.setattr("lqhv.cli.load_family", failing_load)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error: no reader for this family\n"

    def test_a_site_without_a_povm_list_is_refused(self):
        doc = io.quantum_to_json(L.chsh_optimal_scenario())
        doc["povms"][1] = 5
        with pytest.raises(InputError, match="^site 2 needs a list of POVMs$"):
            io.quantum_from_json(doc)

    def test_two_keys_reading_as_one_tuple_are_refused(self):
        tables = {t: L.pr_box().table(t).tolist() for t in L.CHSH_SCENARIO.setting_tuples()}
        tables[range(1, 3)] = tables.pop((1, 1))  # reads as (1, 2), which is also given
        with pytest.raises(InputError, match="^duplicate setting tuples in table map$"):
            L.DistributionFamily(L.CHSH_SCENARIO, tables)
