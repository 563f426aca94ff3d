"""Born-rule family generation from states and POVMs."""

import re

import numpy as np
import pytest

import lqhv as L
from lqhv.errors import InputError
from oracles import loop_born_family, singlet_projective_table

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


class TestValidation:
    def test_density_matrix_must_be_hermitian(self):
        m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(InputError, match="Hermitian"):
            L.DensityMatrix(m)

    def test_density_matrix_must_have_unit_trace(self):
        with pytest.raises(InputError, match="trace"):
            L.DensityMatrix(np.eye(2, dtype=complex))

    def test_density_matrix_positivity_floor(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InputError, match="eigenvalue"):
            L.DensityMatrix(m)

    def test_povm_closure(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InputError, match="identity"):
            L.POVM((p, p))

    def test_povm_positivity(self):
        up = np.diag([1.5, 0.0]).astype(complex)
        down = np.diag([-0.5, 1.0]).astype(complex)
        with pytest.raises(InputError, match="eigenvalue"):
            L.POVM((up, down))

    def test_state_dimension_must_match_sites(self):
        povm = L.projective_qubit_povm(Z)
        with pytest.raises(InputError, match="dimension"):
            L.QuantumScenario(L.maximally_mixed(2), [[povm], [povm]])

    def test_projective_povm_needs_unit_direction(self):
        with pytest.raises(InputError, match="unit"):
            L.projective_qubit_povm((0.0, 0.0, 2.0))

    def test_projective_effects_idempotent(self):
        povm = L.projective_qubit_povm((0.6, 0.0, 0.8))
        for effect in povm.effects:
            assert np.abs(effect @ effect - effect).max() <= 1e-12
            assert abs(np.trace(effect) - 1.0) <= 1e-12


class TestBornFamily:
    def test_singlet_same_direction_anticorrelates(self):
        for d in (Z, X, (0.6, 0.0, 0.8)):
            q = L.QuantumScenario(
                L.singlet_state(),
                [[L.projective_qubit_povm(d)], [L.projective_qubit_povm(d)]])
            table = L.born_family(q).table((1, 1))
            assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert table[1, 1] == pytest.approx(0.0, abs=1e-12)
            assert table[0, 1] == pytest.approx(0.5, abs=1e-12)
            assert table[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        q = L.QuantumScenario(
            L.maximally_mixed(4),
            [[L.projective_qubit_povm(Z), L.projective_qubit_povm(X)],
             [L.projective_qubit_povm(Z)]])
        fam = L.born_family(q)
        for t in fam.scenario.setting_tuples():
            assert np.abs(fam.table(t) - 0.25).max() <= 1e-12

    def test_singlet_tables_match_analytic_oracle(self):
        dirs_a = [Z, X]
        dirs_b = [(0.0, 0.8, 0.6), (-0.6, 0.0, 0.8)]
        q = L.QuantumScenario(
            L.singlet_state(),
            [[L.projective_qubit_povm(d) for d in dirs_a],
             [L.projective_qubit_povm(d) for d in dirs_b]])
        fam = L.born_family(q)
        for s1, a_dir in enumerate(dirs_a, start=1):
            for s2, b_dir in enumerate(dirs_b, start=1):
                oracle = singlet_projective_table(a_dir, b_dir)
                assert np.abs(fam.table((s1, s2)) - oracle).max() <= 1e-12

    def test_born_families_are_nonsignaling(self):
        q = L.chsh_optimal_scenario()
        family = L.born_family(q)
        assert family.tol == 1e-12
        assert L.check_nonsignaling(family) is None

    def test_tables_sum_to_one_tightly(self):
        fam = L.born_family(L.chsh_optimal_scenario())
        for t in fam.scenario.setting_tuples():
            assert abs(fam.table(t).sum() - 1.0) <= 1e-12


    @pytest.mark.parametrize("dims,settings,outcomes", [
        ((3, 2, 2), (3, 2, 3), (3, 3, 2)),
        ((2, 3, 2), (1, 3, 2), (2, 3, 3)),
        ((3,), (3,), (3,)),
    ])
    def test_random_states_match_loop_oracle(self, dims, settings, outcomes):
        rng = np.random.default_rng(sum(dims) + sum(settings))

        def positive(d):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return a @ a.conj().T

        effects = []
        for d, s, k in zip(dims, settings, outcomes):
            site = []
            for _ in range(s):
                parts = [positive(d) for _ in range(k)]
                w, v = np.linalg.eigh(sum(parts))
                root = v @ np.diag(w ** -0.5) @ v.conj().T
                site.append([(root @ g @ root + (root @ g @ root).conj().T) / 2 for g in parts])
            effects.append(site)
        rho = positive(int(np.prod(dims)))
        rho = rho / np.trace(rho).real
        q = L.QuantumScenario(L.DensityMatrix(rho),
                              [[L.POVM(tuple(e)) for e in site] for site in effects])
        fam = L.born_family(q)
        oracle = loop_born_family(rho, effects)
        assert sorted(oracle) == fam.scenario.setting_tuples()
        for t, table in oracle.items():
            assert np.abs(fam.table(t) - table).max() <= 1e-12

    def test_imaginary_residue_names_first_cell(self):
        # asymmetric by 5e-10, inside the 1e-9 Hermitian tolerance
        rho = L.DensityMatrix(np.array([[0.5, 5e-10j], [0.0, 0.5]]))
        q = L.QuantumScenario(rho, [[L.projective_qubit_povm(X)]])
        with pytest.raises(InputError, match=re.escape("probability at (1,)(0,) has imaginary part")):
            L.born_family(q)


class TestChshOptimal:
    def test_correlator_pattern(self):
        fam = L.born_family(L.chsh_optimal_scenario())
        obs = [[1.0, -1.0], [1.0, -1.0]]
        r = 1.0 / np.sqrt(2.0)
        expected = {(1, 1): r, (1, 2): r, (2, 1): r, (2, 2): -r}
        for t, value in expected.items():
            assert L.product_expectation_family(fam, t, obs) == pytest.approx(value, abs=1e-12)

    def test_chsh_combination(self):
        fam = L.born_family(L.chsh_optimal_scenario())
        assert L.chsh_value(fam) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_pipeline_reproduces_tables(self):
        fam = L.born_family(L.chsh_optimal_scenario())
        model = L.build_deterministic_measure(fam)
        report = L.verify_marginals(model, fam)
        assert report.max_error <= 1e-9
