"""JSON round trips and file validation."""

import json
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L
from lqhv import io
from lqhv.errors import InputError


class TestFamilyFiles:
    def test_rational_round_trip(self):
        fam = L.isotropic_box(Fraction(9, 20))
        data = io.family_to_json(fam)
        back = io.family_from_json(data)
        assert back.mode == L.RATIONAL
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(back.tables[t], fam.tables[t])

    def test_rational_entries_are_fraction_strings(self):
        data = io.family_to_json(L.pr_box())
        entries = set(data["tables"]["1,1"])
        assert entries == {"1/2", "0"}

    def test_float_round_trip(self):
        fam = L.born_family(L.chsh_optimal_scenario())
        back = io.family_from_json(json.loads(json.dumps(io.family_to_json(fam))))
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(back.tables[t], fam.tables[t])

    def test_keys_are_one_based(self):
        data = io.family_to_json(L.pr_box())
        assert set(data["tables"]) == {"1,1", "1,2", "2,1", "2,2"}

    def test_missing_field_rejected(self):
        data = io.family_to_json(L.pr_box())
        del data["mode"]
        with pytest.raises(InputError, match="mode"):
            io.family_from_json(data)

    def test_bad_tuple_key_rejected(self):
        data = io.family_to_json(L.pr_box())
        data["tables"]["x,y"] = data["tables"].pop("1,1")
        with pytest.raises(InputError):
            io.family_from_json(data)

    def test_wrong_entry_count_rejected(self):
        data = io.family_to_json(L.pr_box())
        data["tables"]["1,1"] = ["1/2", "1/2"]
        with pytest.raises(InputError):
            io.family_from_json(data)

    def test_denormalized_file_rejected(self):
        data = io.family_to_json(L.pr_box())
        data["tables"]["1,1"] = ["1/2", "0", "0", "1/3"]
        with pytest.raises(InputError, match="never renormalized"):
            io.family_from_json(data)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "family.json"
        io.save_family(L.pr_box(), str(path))
        fam = io.load_family(str(path))
        assert L.chsh_value(fam) == 4


class TestMeasureFiles:
    def test_round_trip(self, tmp_path):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        path = tmp_path / "measure.json"
        io.save_measure(mu, str(path))
        back = io.load_measure(str(path))
        assert back.scenario == mu.scenario
        assert np.array_equal(back.atoms, mu.atoms)

    def test_axis_metadata(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        data = io.measure_to_json(mu)
        assert data["axes"] == [
            {"site": 1, "setting": 1, "outcomes": 2},
            {"site": 1, "setting": 2, "outcomes": 2},
            {"site": 2, "setting": 1, "outcomes": 2},
            {"site": 2, "setting": 2, "outcomes": 2},
        ]

    def test_import_validates_normalization(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        data = io.measure_to_json(mu)
        data["atoms"] = list(data["atoms"])
        data["atoms"][0] = "1/2"
        with pytest.raises(InputError, match="mass"):
            io.measure_from_json(data)

    def test_axis_order_enforced(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        data = io.measure_to_json(mu)
        data["axes"] = data["axes"][::-1]
        with pytest.raises(InputError, match="order"):
            io.measure_from_json(data)

    @pytest.mark.parametrize("key,value", [("site", "x"), ("setting", None), ("outcomes", [2])])
    def test_non_integer_axis_field_rejected(self, key, value):
        data = io.measure_to_json(L.build_deterministic_measure(L.pr_box()).measure)
        data["axes"][1][key] = value
        with pytest.raises(InputError, match="must be an integer"):
            io.measure_from_json(data)

    def test_duplicate_axis_rejected(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        data = io.measure_to_json(mu)
        data["axes"][1] = dict(data["axes"][0])
        with pytest.raises(InputError, match="duplicate"):
            io.measure_from_json(data)


class TestVerdictFiles:
    def test_feasible_verdict(self, tmp_path):
        verdict = L.lhv_feasible(L.isotropic_box(Fraction(2, 5)))
        data = io.verdict_to_json(verdict)
        assert data["feasible"] is True
        assert data["certificate"] is None
        witness = io.measure_from_json(data["witness"])
        assert witness.min_atom >= 0
        assert "row" in data["row_order"]

    def test_infeasible_verdict(self):
        verdict = L.lhv_feasible(L.pr_box())
        data = io.verdict_to_json(verdict)
        assert data["feasible"] is False
        assert data["witness"] is None
        assert len(data["certificate"]) == 16
        cert = np.array([Fraction(v) for v in data["certificate"]], dtype=object)
        assert L.certificate_gap(cert, L.pr_box()) > 0


class TestQuantumFiles:
    def test_round_trip(self, tmp_path):
        q = L.chsh_optimal_scenario()
        path = tmp_path / "quantum.json"
        io.save_quantum(q, str(path))
        back = io.load_quantum(str(path))
        fam_a = L.born_family(q)
        fam_b = L.born_family(back)
        for t in fam_a.scenario.setting_tuples():
            assert np.abs(fam_a.table(t) - fam_b.table(t)).max() <= 1e-15

    def test_complex_entries_are_pairs(self):
        data = io.quantum_to_json(L.chsh_optimal_scenario())
        entry = data["rho"][1][2]
        assert len(entry) == 2
        assert entry[0] == pytest.approx(-0.5)
        assert entry[1] == pytest.approx(0.0)

    def test_malformed_complex_rejected(self):
        data = io.quantum_to_json(L.chsh_optimal_scenario())
        data["rho"][0][0] = [1.0]
        with pytest.raises(InputError, match="re, im"):
            io.quantum_from_json(data)

    def test_dim_declaration_checked(self):
        data = io.quantum_to_json(L.chsh_optimal_scenario())
        data["site_dims"] = [2, 3]
        with pytest.raises(InputError):
            io.quantum_from_json(data)


class TestPaths:
    def test_unreadable_path(self):
        with pytest.raises(InputError, match="cannot read"):
            io.load_family("/nonexistent/family.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(InputError, match="not valid JSON"):
            io.load_family(str(path))
