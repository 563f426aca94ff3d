"""LHV feasibility LP: witnesses, certificates, thresholds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L
from lqhv import io, lp
from lqhv.cli import main
from lqhv.errors import AtomBudgetError, RepresentationError, SignalingError
from oracles import brute_marginal_matrix, dense_bland_phase1


def product_family_2x2():
    p = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 5), Fraction(4, 5)]]
    q = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(2, 7), Fraction(5, 7)]]
    tables = {}
    for s1, s2 in itertools.product((1, 2), repeat=2):
        tables[(s1, s2)] = np.multiply.outer(
            np.array(p[s1 - 1], dtype=object), np.array(q[s2 - 1], dtype=object))
    return L.DistributionFamily(L.CHSH_SCENARIO, tables, L.RATIONAL)


def pr_box_with_coin_settings():
    """(3,3)/(2,2) family: a PR box on settings 1-2, fair coins on setting 3.

    PR marginals are fair coins, so the family is nonsignaling, and it is
    nonlocal because it contains the PR box.
    """
    pr = L.pr_box()
    tables = {}
    for t in itertools.product((1, 2, 3), repeat=2):
        if 3 in t:
            tables[t] = np.full((2, 2), Fraction(1, 4), dtype=object)
        else:
            tables[t] = pr.tables[t]
    return L.DistributionFamily(L.Scenario((3, 3), (2, 2)), tables, L.RATIONAL)


S33 = L.Scenario((3, 3), (2, 2))
S222 = L.Scenario((2, 2, 2), (2, 2, 2))
ORACLE_FAMILIES = {
    "pr": L.pr_box,
    "pr-type-101": lambda: L.pr_type_vertex(1, 0, 1),
    "iso-0": lambda: L.isotropic_box(Fraction(0)),
    "iso-45/100": lambda: L.isotropic_box(Fraction(45, 100)),
    "iso-1/2": lambda: L.isotropic_box(Fraction(1, 2)),
    "iso-55/100": lambda: L.isotropic_box(Fraction(55, 100)),
    "iso-7/10": lambda: L.isotropic_box(Fraction(7, 10)),
    "uniform": lambda: L.uniform_family(L.CHSH_SCENARIO),
    "local-vertex-5": lambda: L.chsh_local_vertices()[5],
    "product": product_family_2x2,
    "S33-pr-coins": pr_box_with_coin_settings,
    **{f"S33-seed{s}": (lambda s=s: L.random_scenario_family(S33, s)) for s in (0, 1, 2)},
    **{f"S222-seed{s}": (lambda s=s: L.random_scenario_family(S222, s)) for s in (0, 1, 6)},
}


class TestConstraintAssembly:
    def test_stacked_order_matches_documentation(self):
        pr = L.pr_box()
        b = L.stack_tables(pr)
        # rows: tuples (1,1),(1,2),(2,1),(2,2); inside each, outcomes
        # (0,0),(0,1),(1,0),(1,1)
        assert b.shape == (16,)
        assert b[0] == Fraction(1, 2)       # tuple (1,1), outcome (0,0)
        assert b[1] == Fraction(0)          # tuple (1,1), outcome (0,1)
        assert b[13] == Fraction(1, 2)      # tuple (2,2), outcome (0,1) satisfies xor 1
        assert b[12] == Fraction(0)         # tuple (2,2), outcome (0,0) violates xor 1

    @pytest.mark.parametrize("settings,outcomes", [
        ((2, 2), (2, 2)), ((3, 1), (2, 3)), ((2, 1, 2), (2, 3, 2))])
    def test_matrix_matches_loop_oracle(self, settings, outcomes):
        a = L.marginal_matrix(L.Scenario(settings, outcomes))
        assert np.array_equal(a, np.array(brute_marginal_matrix(settings, outcomes)))

    def test_matrix_marginalizes_atom_vectors(self):
        sc = L.CHSH_SCENARIO
        a = L.marginal_matrix(sc)
        mu = L.build_deterministic_measure(L.pr_box()).measure
        x = mu.atoms.reshape(-1)
        stacked = a.astype(object) @ x
        assert np.array_equal(stacked, L.stack_tables(L.pr_box()))


class TestFeasibleInstances:
    def test_product_family(self):
        fam = product_family_2x2()
        verdict = L.lhv_feasible(fam)
        assert verdict.feasible
        assert verdict.certificate is None
        assert verdict.measure.min_atom >= 0
        assert verdict.measure.total_mass == 1
        assert L.verify_marginals(verdict.measure, fam).max_error == 0

    def test_isotropic_below_threshold(self):
        fam = L.isotropic_box(Fraction(45, 100))
        verdict = L.lhv_feasible(fam)
        assert verdict.feasible
        assert L.verify_marginals(verdict.measure, fam).max_error == 0

    def test_isotropic_at_threshold(self):
        # CHSH value 4p equals the local bound 2 exactly at p = 1/2
        verdict = L.lhv_feasible(L.isotropic_box(Fraction(1, 2)))
        assert verdict.feasible

    def test_local_vertices_all_feasible(self):
        for vtx in L.chsh_local_vertices():
            assert L.lhv_feasible(vtx).feasible

    def test_agreement_with_nonnegative_builds(self):
        # when the constructed measure is already nonnegative, the LP
        # must agree that a positive simulating measure exists
        for seed in range(12):
            fam = L.random_nonsignaling_family(seed)
            mu = L.build_deterministic_measure(fam).measure
            if mu.min_atom >= 0:
                assert L.lhv_feasible(fam).feasible

    def test_float_mode_witness(self):
        fam = L.convert_family(L.isotropic_box(Fraction(2, 5)), L.FLOAT, tol=1e-9)
        verdict = L.lhv_feasible(fam)
        assert verdict.feasible
        assert verdict.measure.min_atom >= 0
        report = L.verify_marginals(verdict.measure, fam)
        assert report.max_error <= 1e-9


class TestInfeasibleInstances:
    def test_pr_box(self):
        verdict = L.lhv_feasible(L.pr_box())
        assert not verdict.feasible
        assert verdict.measure is None
        assert verdict.residual > 0
        # cross-check: CHSH value 4 exceeds the local bound 2
        assert L.chsh_value(L.pr_box()) == 4

    def test_isotropic_above_threshold(self):
        verdict = L.lhv_feasible(L.isotropic_box(Fraction(55, 100)))
        assert not verdict.feasible
        assert L.chsh_value(L.isotropic_box(Fraction(55, 100))) == Fraction(11, 5)

    def test_certificate_separates_pr_from_local_polytope(self):
        verdict = L.lhv_feasible(L.pr_box())
        cert = verdict.certificate
        assert L.certificate_gap(cert, L.pr_box()) > 0
        for vtx in L.chsh_local_vertices():
            assert L.certificate_gap(cert, vtx) <= 0

    def test_certificate_nonpositive_on_atom_columns(self):
        verdict = L.lhv_feasible(L.pr_box())
        cert = verdict.certificate
        a = L.marginal_matrix(L.CHSH_SCENARIO).astype(object)
        products = cert @ a
        assert all(v <= 0 for v in products)

    def test_certificate_gap_equals_residual(self):
        for fam in (L.pr_box(), L.isotropic_box(Fraction(7, 10))):
            verdict = L.lhv_feasible(fam)
            assert not verdict.feasible
            assert L.certificate_gap(verdict.certificate, fam) == verdict.residual

    def test_float_certificate(self):
        fam = L.convert_family(L.isotropic_box(Fraction(3, 4)), L.FLOAT)
        verdict = L.lhv_feasible(fam)
        assert not verdict.feasible
        cert = verdict.certificate
        assert L.certificate_gap(cert, fam) > 1e-6
        for vtx in L.chsh_local_vertices(L.FLOAT):
            assert L.certificate_gap(cert, vtx) <= 1e-9


class TestSimplex:
    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_rational_matches_dense_fraction_tableau(self, name):
        fam = ORACLE_FAMILIES[name]()
        a = L.marginal_matrix(fam.scenario)
        b = L.stack_tables(fam)
        expected = dense_bland_phase1(a.tolist(), list(b))
        rhs = fam.numerators.reshape(-1)
        assert lp._phase1_simplex(a, rhs, fam.denominator, L.RATIONAL, 0.0) == expected
        objective, x, y = expected
        verdict = L.lhv_feasible(fam)
        assert verdict.residual == objective
        if verdict.feasible:
            assert list(verdict.measure.atoms.reshape(-1)) == x
        else:
            assert list(verdict.certificate) == y

    def test_oracle_families_cover_both_verdicts(self):
        verdicts = {name: L.lhv_feasible(make()).feasible for name, make in ORACLE_FAMILIES.items()
                    if name.startswith(("S33", "S222"))}
        for shape in ("S33", "S222"):
            assert {v for name, v in verdicts.items() if name.startswith(shape)} == {True, False}

    @pytest.mark.parametrize("fam", [L.pr_box(), L.isotropic_box(Fraction(2, 5)),
                                     L.random_scenario_family(S222, 0),
                                     L.random_scenario_family(S222, 1)])
    def test_rational_outputs_are_fractions(self, fam):
        objective, x, y = lp._phase1_simplex(L.marginal_matrix(fam.scenario),
                                             fam.numerators.reshape(-1), fam.denominator,
                                             L.RATIONAL, 0.0)
        assert all(type(v) is Fraction for v in [objective, *x, *y])
        verdict = L.lhv_feasible(fam)
        values = verdict.measure.atoms.reshape(-1) if verdict.feasible else verdict.certificate
        assert all(type(v) is Fraction for v in [verdict.residual, *values])

    @pytest.mark.parametrize("local", [False, True])
    def test_four_party_binary_rational_agrees_with_float(self, local):
        sc = L.Scenario((2,) * 4, (2,) * 4)
        fam = L.uniform_family(sc) if local else L.random_scenario_family(sc, 0)
        exact = L.lhv_feasible(fam)
        as_float = L.convert_family(fam, L.FLOAT)
        approx = L.lhv_feasible(as_float)
        assert exact.feasible == approx.feasible == local
        assert float(exact.residual) == pytest.approx(approx.residual, abs=1e-9)


class TestVerdictCheck:
    """lhv_feasible checks its own verdict; corrupt the simplex to see it refuse."""

    @pytest.fixture()
    def corrupt(self, monkeypatch):
        solve = lp._phase1_simplex

        def install(edit):
            monkeypatch.setattr(lp, "_phase1_simplex",
                                lambda *args: edit(*solve(*args)))
        return install

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_witness_missing_a_table_entry(self, corrupt, mode):
        def shift_mass(objective, x, y):
            i, j = [k for k, v in enumerate(x) if v > 0][:2]
            x[i], x[j] = x[i] + x[j], 0 * x[j]
            return objective, x, y
        corrupt(shift_mass)
        fam = L.convert_family(L.isotropic_box(Fraction(2, 5)), mode)
        with pytest.raises(RepresentationError, match="witness"):
            L.lhv_feasible(fam)

    def test_negative_witness_atom(self, corrupt):
        def negate(objective, x, y):
            i = next(k for k, v in enumerate(x) if v > 0)
            x[i] = -x[i]
            return objective, x, y
        corrupt(negate)
        with pytest.raises(RepresentationError, match="below"):
            L.lhv_feasible(L.uniform_family(L.CHSH_SCENARIO))

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_certificate_positive_on_an_atom(self, corrupt, mode):
        corrupt(lambda objective, x, y: (objective, x, [abs(v) for v in y]))
        with pytest.raises(RepresentationError, match="atom column"):
            L.lhv_feasible(L.convert_family(L.pr_box(), mode))

    def test_certificate_gap_must_match_residual(self, corrupt):
        corrupt(lambda objective, x, y: (2 * objective, x, y))
        with pytest.raises(RepresentationError, match="residual"):
            L.lhv_feasible(L.pr_box())

    def test_cli_maps_failed_check_to_exit_two(self, corrupt, tmp_path, capsys):
        corrupt(lambda objective, x, y: (2 * objective, x, y))
        path = tmp_path / "pr.json"
        io.save_family(L.pr_box(), str(path))
        assert main(["lhv", str(path)]) == 2
        assert "precondition failed" in capsys.readouterr().err


class TestPreconditions:
    def test_signaling_family_refused(self):
        with pytest.raises(SignalingError):
            L.lhv_feasible(L.signaling_example())

    def test_budget_respected(self):
        with pytest.raises(AtomBudgetError):
            L.lhv_feasible(L.pr_box(), budget=8)

    def test_tableau_budget_checked_before_assembly(self, monkeypatch):
        # 16 rows x (16 atoms + 16 rows + 1) = 528 cells
        def never(scenario):
            raise AssertionError("marginal matrix built past the budget")
        monkeypatch.setattr(lp, "marginal_matrix", never)
        with pytest.raises(AtomBudgetError, match="528 cells"):
            L.lhv_feasible(L.pr_box(), budget=527)
        monkeypatch.undo()
        assert not L.lhv_feasible(L.pr_box(), budget=528).feasible

    def test_three_party_instance(self):
        sc = L.Scenario((2, 2, 2), (2, 2, 2))
        fam = L.random_scenario_family(sc, seed=5)
        verdict = L.lhv_feasible(fam)
        if verdict.feasible:
            assert L.verify_marginals(verdict.measure, fam).max_error == 0
        else:
            gap = L.certificate_gap(verdict.certificate, fam)
            assert gap > 0
