"""Every value a caller or a file hands the library is read once, where it
enters, by the readers that already exist.

Denominators and budgets go through `numeric.read_int`, tolerances and
quantum entries through the float rule (never a bool, always finite),
and a table key or `--tuple` is comma-separated ASCII digits. Each case
below was once read its own way: kept as a numpy integer, compared
without being read, parsed by `int()` or accepted as a bool. The second
half reaches refusals that no other test reaches.
"""

import json
import os
import re

import numpy as np
import pytest

import lqhv as L
from lqhv import io, numeric, scenario
from lqhv.cli import main
from lqhv.errors import InputError

CHSH = L.CHSH_SCENARIO
E0 = np.zeros(CHSH.joint_shape, dtype=int)
E0.flat[0] = 1


def wide_mixture():
    """A (3,3)/(4,4) family whose denominator (10,258,974) overflows int64
    once the build multiplies in the site maps' denominators."""
    sc = L.Scenario((3, 3), (4, 4))
    return L.mix_families([L.random_scenario_family(sc, 1), L.random_scenario_family(sc, 2)],
                          [1, 9998])


class TestDenominators:
    def test_a_numpy_denominator_builds_as_a_python_int(self):
        family = wide_mixture()
        held = L.DistributionFamily.from_numerators(family.scenario, family.numerators,
                                                    np.int64(family.denominator))
        assert type(held.denominator) is int
        built = L.build_deterministic_measure(held).measure
        exact = L.build_deterministic_measure(family).measure
        assert built.denominator == exact.denominator
        assert built.numerators.tolist() == exact.numerators.tolist()
        assert built.total_mass == 1

    @pytest.mark.parametrize("make,message", [
        (lambda: L.DistributionFamily.from_numerators(CHSH, np.ones((2, 2, 2, 2), dtype=int), 4.0),
         "denominator must be an integer, got 4.0"),
        (lambda: L.DistributionFamily.from_numerators(CHSH, np.ones((2, 2, 2, 2), dtype=int), True),
         "denominator must be an integer, got True"),
        (lambda: L.SignedMeasure.from_numerators(CHSH, -E0, -1),
         "denominator must be positive, got -1"),
        (lambda: L.DistributionFamily.from_numerators(CHSH, -np.ones((2, 2, 2, 2), dtype=int), -4),
         "denominator must be positive, got -4"),
        (lambda: L.SignedMeasure.from_numerators(CHSH, 0 * E0, 0, "float"),
         "denominator must be positive, got 0"),
    ], ids=["float", "bool", "measure-negative", "family-negative", "zero"])
    def test_malformed_denominators_are_refused(self, make, message):
        with pytest.raises(InputError, match=re.escape(message)):
            make()


class TestBudgets:
    @pytest.mark.parametrize("budget", ["x", True, 1e9, None], ids=repr)
    @pytest.mark.parametrize("call", [L.build_deterministic_measure, L.lhv_feasible],
                             ids=["build", "lhv"])
    def test_a_budget_is_an_integer(self, call, budget):
        message = f"budget must be an integer, got {budget!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            call(L.pr_box(), budget=budget)

    def test_a_numpy_budget_is_read(self):
        assert L.lhv_feasible(L.pr_box(), budget=np.int64(528)).feasible is False
        with pytest.raises(L.AtomBudgetError, match="over the budget 527"):
            L.lhv_feasible(L.pr_box(), budget=np.int32(527))


def pr_doc_with_key(key):
    doc = io.family_to_json(L.pr_box())
    doc["tables"][key] = doc["tables"].pop("2,2")
    return doc


class TestKeys:
    @pytest.mark.parametrize("key", ["+2,2", " 2, 2", "2,2 ", "2, 2", "2,+2", "2,-2", "2,,2", "",
                                     "2;2", "2,2.0", "2_0,2", "２,2", "1" * 5000 + ",2"])
    def test_a_key_is_comma_separated_ascii_digits(self, key):
        with pytest.raises(InputError, match=re.escape(f"malformed setting-tuple key {key!r}")):
            io.family_from_json(pr_doc_with_key(key))

    def test_leading_zeros_are_allowed(self):
        family = io.family_from_json(pr_doc_with_key("002,02"))
        assert family.numerators.tolist() == L.pr_box().numerators.tolist()

    def test_a_malformed_key_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(pr_doc_with_key("+2,2")))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed setting-tuple key '+2,2'" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["+1, 2", " 1,2", "1_0,1", "1,2 "])
    def test_a_malformed_tuple_flag_exits_one(self, text, tmp_path, capsys):
        path = tmp_path / "f.json"
        io.save_family(L.pr_box(), str(path))
        assert main(["expect", str(path), "--tuple", text, "--observables", "[[1,-1],[1,-1]]"]) == 1
        assert f"malformed setting-tuple key {text!r}" in capsys.readouterr().err


class TestAssignment:
    @pytest.mark.parametrize("assignment", [5, None, iter([(0, 1), (1, 0)])],
                             ids=["int", "none", "iter"])
    def test_an_assignment_is_a_list_of_sites(self, assignment):
        message = f"assignment {assignment!r} must cover 2 sites"
        with pytest.raises(InputError, match=re.escape(message)):
            L.local_deterministic_vertex(CHSH, assignment)

    def test_a_numpy_assignment_is_read(self):
        vertex = L.local_deterministic_vertex(CHSH, np.array([[0, 1], [1, 0]]))
        assert vertex.numerators.tolist() == \
            L.local_deterministic_vertex(CHSH, [(0, 1), (1, 0)]).numerators.tolist()


class TestTolerances:
    @pytest.mark.parametrize("tol", [True, np.bool_(False), "x", None, [1e-9], float("inf"),
                                     float("nan"), -1e-9], ids=repr)
    def test_a_tolerance_is_a_finite_nonnegative_number(self, tol, monkeypatch):
        if tol is None:  # then the environment variable is read
            monkeypatch.setenv("LQHV_TOL", "1e-9 x")
        shown = "'1e-9 x'" if tol is None else repr(tol)
        source = "LQHV_TOL" if tol is None else "tolerance"
        with pytest.raises(InputError, match=re.escape(f"{source} must be a finite nonnegative "
                                                       f"number, got {shown}")):
            numeric.tolerance(numeric.FLOAT, tol)

    def test_numbers_and_environment_text_are_read(self, monkeypatch):
        monkeypatch.setenv("LQHV_TOL", " 2.5e-7 ")
        assert numeric.tolerance(numeric.FLOAT) == 2.5e-7
        assert numeric.tolerance(numeric.FLOAT, np.float32(0.5)) == 0.5
        assert numeric.tolerance(numeric.FLOAT, 0) == 0.0
        assert numeric.tolerance(numeric.RATIONAL, 1e-3) == 0

    def test_a_bool_tolerance_is_refused_by_the_family(self):
        with pytest.raises(InputError, match="tolerance must be"):
            L.DistributionFamily.from_stacked(CHSH, L.pr_box("float").numerators, "float", tol=True)


def quantum_doc(entry):
    doc = io.quantum_to_json(L.chsh_optimal_scenario())
    doc["rho"][0][0] = entry
    return doc


class TestQuantumEntries:
    @pytest.mark.parametrize("entry,message", [
        ([True, False], "rho: expected a matrix of [re, im] pairs: true/false is not a number"),
        ([0.0, None], "rho: expected a matrix of [re, im] pairs"),
        ([1e400, 0.0], "rho: expected a matrix of [re, im] pairs: non-finite entry"),
        ([0.0, 0.0, 0.0], "rho: expected a matrix of [re, im] pairs"),
        (0.0, "rho: expected a matrix of [re, im] pairs"),
    ], ids=["bool", "null", "overflow", "triple", "bare-number"])
    def test_file_entries_follow_the_float_rule(self, entry, message):
        with pytest.raises(InputError, match=re.escape(message)):
            io.quantum_from_json(quantum_doc(entry))

    def test_effect_entries_follow_the_float_rule(self):
        doc = io.quantum_to_json(L.chsh_optimal_scenario())
        doc["povms"][1][0][1][0][0] = [False, 0.0]
        with pytest.raises(InputError, match=re.escape("site 2 setting 1 effect 1: expected a "
                                                       "matrix of [re, im] pairs")):
            io.quantum_from_json(doc)

    def test_a_bool_entry_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(quantum_doc([True, False])))
        assert main(["quantum", str(path), "-o", str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert "true/false is not a number" in err and "Traceback" not in err
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("make,message", [
        (lambda: L.DensityMatrix([[True]]), "density matrix holds true/false"),
        (lambda: L.DensityMatrix(np.array([[True, False], [False, False]])),
         "density matrix holds true/false"),
        (lambda: L.POVM(([[1, 0], [0, 0]], [[False, 0], [0, 1]])), "effect 1 holds true/false"),
        (lambda: L.DensityMatrix("x"), "density matrix is not a complex matrix"),
        (lambda: L.DensityMatrix([[1.0], [0.0, 0.0]]), "density matrix is not a complex matrix"),
        (lambda: L.DensityMatrix(np.zeros((0, 0))), "must be a square matrix, got shape (0, 0)"),
        (lambda: L.DensityMatrix(np.diag([np.inf, 1.0]) + 0j), "has non-finite entries"),
        (lambda: L.projective_qubit_povm((True, False, False)),
         "direction (True, False, False): true/false is not a number"),
        (lambda: L.projective_qubit_povm((np.nan, 0.0, 1.0)), "non-finite entry"),
        (lambda: L.projective_qubit_povm(("x", 0.0, 1.0)), "cannot interpret data as a float"),
    ], ids=["state-bool", "state-bool-array", "effect-bool", "text", "ragged", "empty",
            "infinite", "direction-bool", "direction-nan", "direction-text"])
    def test_matrices_and_directions_are_read_once(self, make, message):
        with pytest.raises(InputError, match=re.escape(message)):
            make()

    def test_numpy_arrays_are_still_read(self):
        direction = L.projective_qubit_povm(np.array([0.6, 0.0, 0.8]))
        assert all(np.array_equal(a, b) for a, b in
                   zip(direction.effects, L.projective_qubit_povm((0.6, 0.0, 0.8)).effects))
        mixed = np.eye(2) / 2
        state = L.DensityMatrix(mixed)
        assert state.matrix.dtype == complex and not state.matrix.flags.writeable
        assert mixed.flags.writeable  # the caller's array is copied, not frozen
        assert L.DensityMatrix(mixed.tolist()).matrix.tolist() == state.matrix.tolist()

    def test_the_file_reads_the_pairs_it_writes(self):
        q = L.chsh_optimal_scenario()
        back = io.quantum_from_json(json.loads(json.dumps(io.quantum_to_json(q))))
        assert np.array_equal(back.rho.matrix, q.rho.matrix)
        for site, site_back in zip(q.povms, back.povms):
            for povm, povm_back in zip(site, site_back):
                assert all(np.array_equal(a, b) for a, b in zip(povm.effects, povm_back.effects))


# Refusals that no other test reaches, each from a public entry point
PR, PR_FLOAT = L.pr_box(), L.pr_box("float")
UNREACHED = {
    "vertex-site-count": (lambda: L.local_deterministic_vertex(CHSH, [(0, 1)]),
                          "must cover 2 sites"),
    "negative-weight": (lambda: L.mix_families([PR, PR], [1, -1]), "weights must be nonnegative"),
    "nothing-to-mix": (lambda: L.mix_families([], []), "nothing to mix"),
    "mixed-modes": (lambda: L.mix_families([PR, PR_FLOAT], [1, 1]), "must share scenario and mode"),
    "tensor-modes": (lambda: L.tensor_family(PR, PR_FLOAT), "blocks must share an arithmetic mode"),
    "chsh-scenario": (lambda: L.chsh_value(L.signaling_example()), "CHSH combination needs"),
    "verify-modes": (lambda: L.verify_marginals(L.build_deterministic_measure(PR), PR_FLOAT),
                     "measure and family use different arithmetic modes"),
    "empty-nu": (lambda: L.StochasticLqHVModel([], [[[[1]]]]), "nu must be a nonempty vector"),
    "no-conditionals": (lambda: L.StochasticLqHVModel([1], [[]]), "site 1 has no conditionals"),
    "conditional-outcomes": (lambda: L.StochasticLqHVModel([1], [[[[1, 0]], [[1]]]]),
                             "site 1 conditionals disagree on the outcome count"),
    "no-sites": (lambda: L.StochasticLqHVModel([1], []), "model needs at least one site"),
    "observable-count": (lambda: L.product_expectation_family(PR, (1, 1), [[1, -1]]),
                         "expected 2 observable vectors"),
    "certificate-rows": (lambda: L.certificate_gap(np.zeros(3), PR),
                         "certificate has 3 rows, family needs 16"),
    "float-text": (lambda: L.isotropic_box("x", "float"), "cannot interpret 'x' as a float"),
    "rational-nan": (lambda: L.isotropic_box(float("nan")), "non-finite entry nan"),
    "empty-povm": (lambda: L.POVM(()), "POVM needs at least one effect"),
    "tuple-length": (lambda: PR.table((1,)), "setting tuple (1,) has 1 entries, expected 2"),
    "epr-modes": (lambda: L.compare_scenarios_epr(PR, PR_FLOAT),
                  "families use different arithmetic modes"),
    "measure-axes": (lambda: io.measure_from_json({"axes": 5, "mode": "rational", "atoms": []}),
                     "'axes' must be a list"),
}


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_unreached_refusals(name):
    call, message = UNREACHED[name]
    with pytest.raises(InputError, match=re.escape(message)):
        call()


class TestFamilyReadPaths:
    def test_numpy_integer_keys_give_the_int_key_numerators(self):
        tables = {t: L.pr_box().table(t).tolist() for t in CHSH.setting_tuples()}
        keyed = {tuple(map(np.int64, t)): v for t, v in tables.items()}
        assert set(map(type, next(iter(keyed)))) == {np.int64}
        family = L.DistributionFamily(CHSH, keyed)
        assert family.denominator == L.DistributionFamily(CHSH, tables).denominator
        assert family.numerators.tolist() == L.DistributionFamily(CHSH, tables).numerators.tolist()

    def test_common_denominator_past_the_digit_limit_is_refused(self):
        # each table's denominator is under the limit, their lcm is over it
        limit = numeric._digit_limit()
        q1, q2 = 2 ** int(limit * 1.7), 3 ** int(limit * 1.1)
        assert max(q1, q2) < 10 ** limit <= q1 * q2
        sc = L.Scenario((2,), (2,))
        tables = {(1,): [f"1/{q1}", f"{q1 - 1}/{q1}"], (2,): [f"1/{q2}", f"{q2 - 1}/{q2}"]}
        for table in tables.values():
            assert L.DistributionFamily(sc, {(1,): table, (2,): table}).table((1,)).sum() == 1
        with pytest.raises(InputError, match=re.escape(
                f"the entries' common denominator has more than {limit} digits")) as caught:
            L.DistributionFamily(sc, tables)
        assert "table" not in str(caught.value)


class TestWriteFailures:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs an always-full device")
    def test_a_write_that_fails_mid_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        io.save_family(L.random_nonsignaling_family(7), str(path))
        assert main(["build", str(path), "-o", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert "cannot write /dev/full" in err and "Traceback" not in err

    def test_a_file_that_cannot_be_opened_exits_one(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        io.save_family(L.pr_box(), str(path))
        out = tmp_path / "missing" / "m.json"
        assert main(["build", str(path), "-o", str(out)]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err


def test_scenario_still_exports_the_integer_readers():
    assert scenario.read_ints is numeric.read_ints and scenario.read_int is numeric.read_int
