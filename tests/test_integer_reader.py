"""Every integer a caller hands the library is read by one rule.

`scenario.read_ints` (and `read_int` for one value) accepts any integer
type, numpy's included, and refuses a bool, a float, a string or
anything else with an InputError that names the value. Each entry point
below once read its integers its own way: truncating floats, accepting
bools or strings, or raising a bare Python exception.
"""

import json
import re

import numpy as np
import pytest

import lqhv as L
from lqhv import io, scenario
from lqhv.cli import main
from lqhv.errors import InputError

CHSH = L.CHSH_SCENARIO
PR_MARGINALS = L.extract_marginal_family(L.pr_box())

REFUSED = {
    "scenario-float": (lambda: L.Scenario((2.7, 2), (2, 2)), "(2.7, 2)"),
    "scenario-bool": (lambda: L.Scenario((True, 2), (2, 2)), "(True, 2)"),
    "scenario-text": (lambda: L.Scenario(("2", 2), (2, 2)), "('2', 2)"),
    "scenario-outcome-float": (lambda: L.Scenario((2, 2), (2, 2.0)), "(2, 2.0)"),
    "scenario-not-a-sequence": (lambda: L.Scenario(2, 2), "2"),
    "axis-index-bool-site": (lambda: CHSH.axis_index(True, 1), "True"),
    "axis-index-float-site": (lambda: CHSH.axis_index(1.0, 2), "1.0"),
    "axis-index-float-setting": (lambda: CHSH.axis_index(1, 2.0), "2.0"),
    "validate-site-bool": (lambda: CHSH.validate_site(True), "True"),
    "validate-sites-float": (lambda: scenario.validate_sites(CHSH, [1.7]), "[1.7]"),
    "marginal-numerators-float": (lambda: PR_MARGINALS.marginal_numerators((1.5,)), "(1.5,)"),
    "stacked-marginal-bool": (lambda: PR_MARGINALS.stacked_marginal((True,)), "(True,)"),
    "get-float-setting": (lambda: PR_MARGINALS.get((1,), (1.0,)), "(1.0,)"),
    "get-bool-setting": (lambda: PR_MARGINALS.get((1,), (True,)), "(True,)"),
    "get-bool-site": (lambda: PR_MARGINALS.get((True,), (1,)), "(True,)"),
    "coefficient-float": (lambda: L.coefficient(CHSH, [1.9]), "[1.9]"),
    "identity-sum-float-setting": (lambda: L.coefficient_identity_sum((2.5, 2), (1,)), "(2.5, 2)"),
    "identity-sum-float-site": (lambda: L.coefficient_identity_sum((2, 2), (1.0,)), "(1.0,)"),
    "vertex-float-and-bool": (
        lambda: L.local_deterministic_vertex(CHSH, [(0, 1.7), (True, 0)]), "(0, 1.7)"),
    "vertex-text": (lambda: L.local_deterministic_vertex(CHSH, [(0, "a"), (0, 0)]), "(0, 'a')"),
    "vertex-site-not-a-list": (lambda: L.local_deterministic_vertex(CHSH, [0, (0, 0)]), "0"),
    "pr-bool": (lambda: L.pr_type_vertex(True, 0, 0), "(True, 0, 0)"),
    "pr-float": (lambda: L.pr_type_vertex(1.0, 0, 0), "(1.0, 0, 0)"),
    "pr-numpy-bool": (lambda: L.pr_type_vertex(0, np.True_, 0), repr(np.True_)),
    "dimension-bool": (lambda: L.maximally_mixed(True), "True"),
    "dimension-float": (lambda: L.maximally_mixed(2.0), "2.0"),
    "seed-float": (lambda: L.random_nonsignaling_family(2.5), "2.5"),
    "seed-none": (lambda: L.random_nonsignaling_family(None), "None"),
    "scenario-seed-text": (lambda: L.random_scenario_family(CHSH, "7"), "'7'"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_malformed_integers_are_refused_by_name(name):
    call, shown = REFUSED[name]
    with pytest.raises(InputError, match=re.escape(shown)):
        call()


@pytest.mark.parametrize("value", [True, np.bool_(False), 1.0, np.float64(2.0), "1", None, [1],
                                   np.array([1, 2])], ids=repr)
def test_read_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(InputError, match=re.escape(f"x must be an integer, got {value!r}")):
        scenario.read_int(value, "x")
    with pytest.raises(InputError, match=re.escape(f"x {[value]!r} is not a sequence of integers")):
        scenario.read_ints([value], "x")


@pytest.mark.parametrize("int_type", [int, np.int8, np.int64, np.uint16])
def test_integer_types_read_as_python_ints(int_type):
    read = scenario.read_ints([int_type(1), int_type(3)], "x")
    assert read == (1, 3) and all(type(v) is int for v in read)
    assert type(scenario.read_int(int_type(2), "x")) is int


@pytest.mark.parametrize("int_type", [np.int8, np.int64])
def test_numpy_integers_work_at_every_entry_point(int_type):
    one, two = int_type(1), int_type(2)
    sc = L.Scenario((two, two), (two, two))
    assert sc == CHSH and all(type(v) is int for v in sc.settings_per_site + sc.outcomes_per_site)
    assert CHSH.axis_index(two, one) == CHSH.axis_index(2, 1)
    assert CHSH.validate_site(two) == 2
    assert CHSH.validate_setting_tuple((two, one)) == (2, 1)
    assert scenario.validate_sites(CHSH, [two, one]) == (1, 2)
    assert PR_MARGINALS.marginal_numerators((one,))[0].tolist() == \
        PR_MARGINALS.marginal_numerators(iter([1]))[0].tolist() == \
        PR_MARGINALS.marginal_numerators((1,))[0].tolist()
    assert list(PR_MARGINALS.get((one,), (two,))) == list(PR_MARGINALS.get((1,), (2,)))
    assert L.coefficient(CHSH, [one]) == L.coefficient(CHSH, [1])
    assert L.coefficient_identity_sum((two, int_type(3)), (one,)) == 0
    vertex = L.local_deterministic_vertex(CHSH, [(int_type(0), one), (one, int_type(0))])
    assert vertex.numerators.tolist() == \
        L.local_deterministic_vertex(CHSH, [(0, 1), (1, 0)]).numerators.tolist()
    assert L.pr_type_vertex(one, int_type(0), one).numerators.tolist() == \
        L.pr_type_vertex(1, 0, 1).numerators.tolist()
    assert np.array_equal(L.maximally_mixed(two).matrix, L.maximally_mixed(2).matrix)
    seed = int_type(5)
    assert io.family_to_json(L.random_nonsignaling_family(seed)) == \
        io.family_to_json(L.random_nonsignaling_family(5))
    assert io.family_to_json(L.random_scenario_family(CHSH, seed)) == \
        io.family_to_json(L.random_scenario_family(CHSH, 5))


def test_range_errors_are_unchanged():
    with pytest.raises(InputError, match=re.escape("site 3 out of range 1..2")):
        CHSH.validate_site(3)
    with pytest.raises(InputError, match=re.escape("site 0 out of range 1..2")):
        L.coefficient(CHSH, [0])
    with pytest.raises(InputError, match=re.escape("setting 3 out of range for site 1")):
        CHSH.axis_index(1, 3)
    with pytest.raises(InputError, match="alpha, beta, gamma must be bits"):
        L.pr_type_vertex(2, 0, 0)
    with pytest.raises(InputError, match="outcome 2 out of range for site 1"):
        L.local_deterministic_vertex(CHSH, [(0, 2), (0, 0)])


def family_doc(**party):
    doc = io.family_to_json(L.pr_box())
    doc["parties"][0].update(party)
    return doc


def measure_doc(key, value):
    doc = io.measure_to_json(L.build_deterministic_measure(L.pr_box()).measure)
    doc["atoms"] = list(doc["atoms"])
    doc["axes"][0][key] = value
    return doc


def quantum_doc(dims):
    doc = io.quantum_to_json(L.chsh_optimal_scenario())
    doc["site_dims"] = dims
    return doc


class TestLoaders:
    """A count in a file is a JSON integer or an integral number; text is refused."""

    @pytest.mark.parametrize("load,doc,shown", [
        (io.family_from_json, family_doc(settings="2"), "'2'"),
        (io.family_from_json, family_doc(outcomes=" 2 "), "' 2 '"),
        (io.family_from_json, family_doc(settings=2.5), "2.5"),
        (io.measure_from_json, measure_doc("site", "1"), "'1'"),
        (io.measure_from_json, measure_doc("outcomes", 2.5), "2.5"),
        (io.quantum_from_json, quantum_doc(["2", "2"]), "'2'"),
        (io.quantum_from_json, quantum_doc([2, True]), "True"),
    ])
    def test_text_is_not_a_count(self, load, doc, shown):
        with pytest.raises(InputError, match=re.escape(f"must be an integer, got {shown}")):
            load(doc)

    def test_an_integral_number_is_a_count(self):
        assert io.family_from_json(family_doc(settings=2.0, outcomes=2.0)).scenario == CHSH
        assert io.measure_from_json(measure_doc("site", 1.0)).scenario == CHSH
        assert io.quantum_from_json(quantum_doc([2.0, 2])).site_dims == (2, 2)

    @pytest.mark.parametrize("command,doc", [
        ("check", family_doc(settings="2", outcomes=" 2 ")),
        ("lhv", family_doc(outcomes="2")),
        ("quantum", quantum_doc(["2", "2"])),
    ])
    def test_text_counts_exit_one(self, command, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["-o", str(tmp_path / "out.json")] if command == "quantum" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "must be an integer" in err and "Traceback" not in err
