"""LHV feasibility LP: witnesses, certificates, thresholds."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L
from lqhv import io, lp
from lqhv.cli import main
from lqhv.errors import AtomBudgetError, InputError, RepresentationError, SignalingError
from oracles import brute_marginal_matrix, dense_bland_phase1, float_bland_phase1


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
        b = pr.stacked.reshape(-1)
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
        assert np.array_equal(stacked, L.pr_box().stacked.reshape(-1))


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
        b = fam.stacked.reshape(-1)
        expected = dense_bland_phase1(a.tolist(), list(b))
        rhs = fam.numerators.reshape(-1)
        objective, x, y, det = lp._phase1_simplex(a, rhs, fam.denominator, L.RATIONAL, 0.0)
        got = (objective, [Fraction(v, det * fam.denominator) for v in x],
               [Fraction(v, det) for v in y])
        assert got == expected
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


def exact_solution(fam, scale=1):
    """_phase1_simplex on a rational family with b's numerators and denominator
    both multiplied by `scale`, read back as Fractions (objective, x, y) and D."""
    a = L.marginal_matrix(fam.scenario)
    rhs, den = fam.numerators.reshape(-1) * scale, fam.denominator * scale
    objective, x, y, det = lp._phase1_simplex(a, rhs, den, L.RATIONAL, 0.0)
    assert all(type(v) is int for v in [*x, *y, det])
    return (objective, [Fraction(v, det * den) for v in x], [Fraction(v, det) for v in y]), det


@pytest.fixture()
def int64_checks(monkeypatch):
    """Results of every int64 bound check the simplex makes, in order."""
    results = []
    fits = lp._fits

    def spy(block):
        results.append(fits(block))
        return results[-1]
    monkeypatch.setattr(lp, "_fits", spy)
    return results


def crossing_family():
    """(3,3)/(2,2) family whose initial tableau is below 2^31 but whose
    pivots are not: a random family with 1/q white noise, q = 2^24 + 43."""
    q = 2**24 + 43
    return L.mix_families([L.random_scenario_family(S33, 0), L.uniform_family(S33)],
                          [Fraction(q - 1, q), Fraction(1, q)])


class TestIntegerPaths:
    """Rational pivots run on int64 below 2^31 and on Python ints past it."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_scaled_numerators_take_the_object_path(self, name, int64_checks):
        fam = ORACLE_FAMILIES[name]()
        small = exact_solution(fam)
        assert int64_checks and all(int64_checks)
        int64_checks.clear()
        # b's entries now exceed 2^31, so no pivot runs on int64
        assert exact_solution(fam, 2**40) == small
        assert int64_checks == []

    @pytest.mark.parametrize("make", [
        lambda: L.isotropic_box(Fraction(2**39 - 1, 2**40)),
        lambda: L.isotropic_box(Fraction(2**39 + 1, 2**40)),
        crossing_family])
    def test_wide_numerators_match_dense_fraction_tableau(self, make):
        fam = make()
        expected = dense_bland_phase1(L.marginal_matrix(fam.scenario).tolist(),
                                      list(fam.stacked.reshape(-1)))
        assert exact_solution(fam)[0] == expected
        verdict = L.lhv_feasible(fam)
        assert verdict.residual == expected[0]
        values = verdict.measure.atoms.reshape(-1) if verdict.feasible else verdict.certificate
        assert list(values) == expected[1 if verdict.feasible else 2]

    def test_crossing_family_leaves_int64_mid_run(self, int64_checks):
        fam = crossing_family()
        assert sum(abs(v) for v in fam.numerators.reshape(-1)) < 2**31
        exact_solution(fam)
        assert int64_checks[0] and not all(int64_checks)

    def test_large_minors_match_the_object_path(self, int64_checks):
        # a dense random 0/1 system has basis determinants of about 2^33, so
        # unchecked int64 pivots would wrap; the bound moves the run onto Python ints
        rng = np.random.default_rng(1)
        a = (rng.random((32, 64)) < 0.5).astype(np.int8)
        rhs = np.array([int(v) for v in a.astype(np.int64) @ rng.integers(0, 1000, 64)], dtype=object)
        assert rhs.sum() < 2**31
        objective, x, y, det = lp._phase1_simplex(a, rhs, 1, L.RATIONAL, 0.0)
        assert int64_checks[0] and not all(int64_checks)
        wide_objective, wide_x, wide_y, wide_det = lp._phase1_simplex(
            a, rhs * 2**40, 2**40, L.RATIONAL, 0.0)
        assert objective == wide_objective == 0 and det == wide_det
        assert list(wide_x) == list(x * 2**40) and list(wide_y) == list(y)

    @pytest.mark.parametrize("forced", ["first", "last"])
    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_pivot_row_switch_matches_the_unforced_run(self, name, forced, monkeypatch):
        # where an int64 check fails on its own, the block check fails
        # first; a spy makes one pivot-row check fail instead
        fam = ORACLE_FAMILIES[name]()
        fits, checks, target = lp._fits, [], 0

        def spy(block):
            checks.append(block.ndim)
            return fits(block) and not (block.ndim == 1 and checks.count(1) == target)
        monkeypatch.setattr(lp, "_fits", spy)
        unforced, unforced_checks = exact_solution(fam), list(checks)
        target = 1 if forced == "first" else unforced_checks.count(1)
        checks.clear()
        assert target >= 1 and exact_solution(fam) == unforced
        # the failed check was the last one: the tableau holds Python ints from then on
        assert checks == unforced_checks[:len(checks)] and checks[-1] == 1
        assert checks.count(1) == target
        expected = dense_bland_phase1(L.marginal_matrix(fam.scenario).tolist(),
                                      list(fam.stacked.reshape(-1)))
        assert unforced[0] == expected

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES) + ["2^4-seed0", "2^4-seed1"])
    def test_float_pivots_match_former_loop_bit_for_bit(self, name):
        if name.startswith("2^4"):
            fam = L.random_scenario_family(L.Scenario((2,) * 4, (2,) * 4), int(name[-1]), L.FLOAT)
        else:
            fam = L.convert_family(ORACLE_FAMILIES[name](), L.FLOAT)
        a = L.marginal_matrix(fam.scenario)
        rhs = fam.numerators.reshape(-1)
        mass, x, y = float_bland_phase1(a, rhs, fam.tol)
        objective, got_x, got_y, det = lp._phase1_simplex(a, rhs, 1, L.FLOAT, fam.tol)
        assert det == 1 and objective == mass
        assert got_x.tobytes() == x.tobytes() and got_y.tobytes() == y.tobytes()


def negative_zeros(family):
    """`family` read as a float file whose zero entries are written -0.0."""
    doc = io.family_to_json(L.convert_family(family, L.FLOAT))
    doc["tables"] = {key: [-0.0 if v == 0 else v for v in table]
                     for key, table in doc["tables"].items()}
    return io.family_from_json(doc)


def entry_below_zero(family):
    """`family` read as a float file whose first zero entry of table (1, 1)
    gives 1e-12 to its largest, so that it reads -1e-12, within tol of zero,
    and its row is flipped."""
    doc = io.family_to_json(L.convert_family(family, L.FLOAT))
    table = doc["tables"]["1,1"]
    zero, largest = table.index(0.0), table.index(max(table))
    table[zero], table[largest] = -1e-12, table[largest] + 1e-12
    return io.family_from_json(doc)


SIGNED_ZERO_FAMILIES = {
    "pr-negative-zeros": lambda: negative_zeros(L.pr_box()),
    "vertex-negative-zeros": lambda: negative_zeros(L.chsh_local_vertices()[5]),
    "pr-entry-below-zero": lambda: entry_below_zero(L.pr_box()),
    "vertex-entry-below-zero": lambda: entry_below_zero(L.chsh_local_vertices()[5]),
}


def assert_float_bits(fam):
    """_phase1_simplex on a float family equals the dense loop bit for bit."""
    a = L.marginal_matrix(fam.scenario)
    rhs = fam.numerators.reshape(-1)
    mass, x, y = float_bland_phase1(a, rhs, fam.tol)
    objective, got_x, got_y, det = lp._phase1_simplex(a, rhs, 1, L.FLOAT, fam.tol)
    assert det == 1 and np.float64(objective).tobytes() == np.float64(mass).tobytes()
    assert got_x.tobytes() == x.tobytes() and got_y.tobytes() == y.tobytes()


def checked_run(monkeypatch, block, run):
    """`run()` with `_BLOCK` set to `block`. Returns its result, the result
    of each pivot's int64 checks as (pivot row fits, every block fits), and
    the row counts of the checked blocks."""
    fits, checks = lp._fits, []

    def spy(values):
        checks.append((values.shape, fits(values)))
        return checks[-1][1]
    monkeypatch.setattr(lp, "_fits", spy)
    monkeypatch.setattr(lp, "_BLOCK", block)
    result = run()
    monkeypatch.undo()
    pivots, rows = [], []
    for shape, ok in checks:
        if len(shape) == 1:
            pivots.append((ok, True))
        else:
            pivots[-1] = (pivots[-1][0], pivots[-1][1] and ok)
            rows.append(shape[0])
    return result, pivots, rows


class TestBoundedMemory:
    """The simplex holds about its tableau: the constraint block is written
    in place, float pivots touch only the pivot row's nonzero columns, and
    both modes eliminate in blocks of at most `_BLOCK` cells."""

    @pytest.mark.parametrize("parties,mode", [(4, L.FLOAT), (5, L.FLOAT), (5, L.RATIONAL)])
    def test_peak_stays_near_the_tableau(self, parties, mode):
        scenario = L.Scenario((2,) * parties, (2,) * parties)
        fam = L.random_scenario_family(scenario, 0, mode)
        rows = fam.numerators.size
        tableau = (rows + 1) * (scenario.joint_size + rows + 1) * 8
        tracemalloc.start()
        try:
            L.lhv_feasible(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * tableau

    @pytest.mark.parametrize("name", sorted(SIGNED_ZERO_FAMILIES))
    def test_signed_zeros_match_the_dense_loop_bit_for_bit(self, name):
        fam = SIGNED_ZERO_FAMILIES[name]()
        rhs = fam.numerators.reshape(-1)
        assert np.signbit(rhs).any()  # a -0.0 or a flipped row reaches the simplex
        assert_float_bits(fam)
        verdict = L.lhv_feasible(fam)
        assert verdict.feasible == name.startswith("vertex")

    @pytest.mark.parametrize("name", ["pr", "S33-seed0", "S222-seed6", "2^4-seed0",
                                      *sorted(SIGNED_ZERO_FAMILIES)])
    def test_float_blocks_of_a_few_cells_keep_the_bits(self, name, monkeypatch):
        if name.startswith("2^4"):
            fam = L.random_scenario_family(L.Scenario((2,) * 4, (2,) * 4), 0, L.FLOAT)
        elif name in SIGNED_ZERO_FAMILIES:
            fam = SIGNED_ZERO_FAMILIES[name]()
        else:
            fam = L.convert_family(ORACLE_FAMILIES[name](), L.FLOAT)
        monkeypatch.setattr(lp, "_BLOCK", 3)
        assert_float_bits(fam)

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES) + ["crossing"])
    def test_rational_blocks_of_a_few_cells_match_one_block(self, name, monkeypatch):
        fam = crossing_family() if name == "crossing" else ORACLE_FAMILIES[name]()
        one, one_pivots, one_rows = checked_run(monkeypatch, 2**62, lambda: exact_solution(fam))
        few, few_pivots, few_rows = checked_run(monkeypatch, 3, lambda: exact_solution(fam))
        expected = dense_bland_phase1(L.marginal_matrix(fam.scenario).tolist(),
                                      list(fam.stacked.reshape(-1)))
        assert one == few and few[0] == expected
        # the switch to Python ints comes after the same pivot
        assert few_pivots == one_pivots
        assert set(few_rows) == {1} and len(few_rows) > len(one_rows)
        if name == "crossing":
            assert not all(fits for pivot in few_pivots for fits in pivot)

    def test_large_minors_switch_after_the_same_pivot(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = (rng.random((32, 64)) < 0.5).astype(np.int8)
        rhs = np.array([int(v) for v in a.astype(np.int64) @ rng.integers(0, 1000, 64)], dtype=object)

        def run():
            objective, x, y, det = lp._phase1_simplex(a, rhs, 1, L.RATIONAL, 0.0)
            return objective, list(x), list(y), det
        one, one_pivots, _ = checked_run(monkeypatch, 2**62, run)
        few, few_pivots, few_rows = checked_run(monkeypatch, 3, run)
        assert one == few and few_pivots == one_pivots and set(few_rows) == {1}
        assert few_pivots[-1] == (True, False)

    def test_a_column_within_tol_of_zero_is_unbounded(self):
        # no entry clears tol, so no row can leave, yet their sum enters
        a = np.full((3, 1), 5e-10)
        with pytest.raises(InputError, match="phase-1 objective unbounded"):
            lp._phase1_simplex(a, np.ones(3), 1, L.FLOAT, 1e-9)


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
        def shift_mass(objective, x, y, det):
            i, j = [k for k, v in enumerate(x) if v > 0][:2]
            x[i], x[j] = x[i] + x[j], 0 * x[j]
            return objective, x, y, det
        corrupt(shift_mass)
        fam = L.convert_family(L.isotropic_box(Fraction(2, 5)), mode)
        with pytest.raises(RepresentationError, match="witness"):
            L.lhv_feasible(fam)

    def test_negative_witness_atom(self, corrupt):
        def negate(objective, x, y, det):
            i = next(k for k, v in enumerate(x) if v > 0)
            x[i] = -x[i]
            return objective, x, y, det
        corrupt(negate)
        with pytest.raises(RepresentationError, match="below"):
            L.lhv_feasible(L.uniform_family(L.CHSH_SCENARIO))

    def test_witness_off_its_mass_exits_two(self, corrupt, tmp_path, capsys):
        # every table is met within tol = 1e-9, but the mass is 1 + 2e-9
        corrupt(lambda objective, x, y, det: (objective, x * (1 + 2e-9), y, det))
        fam = L.convert_family(L.uniform_family(L.CHSH_SCENARIO), L.FLOAT)
        with pytest.raises(RepresentationError, match="witness is no measure: measure mass"):
            L.lhv_feasible(fam)
        path = tmp_path / "uniform.json"
        io.save_family(fam, str(path))
        assert main(["lhv", str(path)]) == 2
        assert "precondition failed" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_certificate_positive_on_an_atom(self, corrupt, mode):
        corrupt(lambda objective, x, y, det: (objective, x, abs(y), det))
        with pytest.raises(RepresentationError, match="atom column"):
            L.lhv_feasible(L.convert_family(L.pr_box(), mode))

    def test_certificate_gap_must_match_residual(self, corrupt):
        corrupt(lambda objective, x, y, det: (2 * objective, x, y, det))
        with pytest.raises(RepresentationError, match="residual"):
            L.lhv_feasible(L.pr_box())

    def test_cli_maps_failed_check_to_exit_two(self, corrupt, tmp_path, capsys):
        corrupt(lambda objective, x, y, det: (2 * objective, x, y, det))
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
