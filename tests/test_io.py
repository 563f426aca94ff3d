"""JSON round trips and file validation."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("first,second", [("1,1", "01,1"), ("1,1", " 1,1"), ("2,1", "2,+1")])
    def test_keys_naming_one_tuple_rejected(self, first, second):
        data = io.family_to_json(L.pr_box())
        data["tables"][second] = ["1/4"] * 4
        with pytest.raises(InputError, match=re.escape(f"{first!r} and {second!r} name one")):
            io.family_from_json(data)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "family.json"
        io.save_family(L.pr_box(), str(path))
        fam = io.load_family(str(path))
        assert L.chsh_value(fam) == 4


def canonical_shape(axes):
    """(settings, outcomes) per site of the scenario whose joint axes are
    exactly `axes`, or None: site labels must run 1, 2, ..., each site's
    settings 1, 2, ..., and all of a site's axes share one positive
    outcome count."""
    counts, outcomes = [], []
    for n, s, k in axes:
        if counts and n == len(counts) and s == counts[-1] + 1 and k == outcomes[-1]:
            counts[-1] += 1
        elif n == len(counts) + 1 and s == 1 and k >= 1:
            counts.append(1)
            outcomes.append(k)
        else:
            return None
    return (tuple(counts), tuple(outcomes)) if counts else None


@st.composite
def mutated_axes(draw):
    """A valid (site, setting, outcomes) axes list with at most one mutation."""
    shape = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3))
    axes = [(n, s, k) for n, (s_n, k) in enumerate(shape, start=1) for s in range(1, s_n + 1)]
    i, j = (draw(st.integers(0, len(axes) - 1)) for _ in range(2))
    n, s, k = axes[i]
    kind = draw(st.sampled_from(["none", "swap", "repeat", "drop", "outcomes", "site", "huge"]))
    if kind == "swap":
        axes[i], axes[j] = axes[j], axes[i]
    elif kind == "repeat":
        axes.insert(j, axes[i])
    elif kind == "drop":
        del axes[i]
    elif kind == "outcomes":
        axes[i] = (n, s, k + draw(st.sampled_from([-k, -1, 1])))
    elif kind == "site":
        axes[i] = (n + draw(st.sampled_from([-1, 1])), s, k)
    elif kind == "huge":
        axes[i] = draw(st.sampled_from([(10**9, s, k), (n, 10**9, k)]))
    return axes


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

    @settings(max_examples=400, deadline=2000)
    @given(mutated_axes())
    def test_axes_are_exactly_the_scenario_coordinates(self, axes):
        doc = {"axes": [{"site": n, "setting": s, "outcomes": k} for n, s, k in axes]}
        shape = canonical_shape(axes)
        if shape is None:
            # refused on the axes alone, before the missing mode and atoms are read
            with pytest.raises(InputError) as refused:
                io.measure_from_json(doc)
            assert "missing" not in str(refused.value)
            return
        size = math.prod(k**s for s, k in zip(*shape))
        mu = io.measure_from_json(dict(doc, mode="rational", atoms=[1] + [0] * (size - 1)))
        assert mu.scenario == L.Scenario(*shape)
        assert io.measure_to_json(mu)["axes"] == doc["axes"]


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


    @pytest.mark.parametrize("dims", [[], [2], [2, 2, 2], [3, 2], [2, 4]])
    def test_declared_dims_must_be_the_povms(self, dims):
        data = io.quantum_to_json(L.chsh_optimal_scenario())
        data["site_dims"] = dims
        with pytest.raises(InputError, match="site_dims"):
            io.quantum_from_json(data)


class TestPaths:
    def test_unreadable_path(self):
        with pytest.raises(InputError, match="cannot read"):
            io.load_family("/nonexistent/family.json")

    @pytest.mark.parametrize("loader,text,key", [
        (io.load_family, '{"mode": "rational", "mode": "float"}', "mode"),
        (io.load_family, '{"tables": {"1,1": [1], "1,2": [0], "1,1": [0]}}', "1,1"),
        (io.load_measure, '{"axes": [{"site": 1, "setting": 1, "site": 2}]}', "site"),
    ])
    def test_repeated_key_rejected(self, tmp_path, loader, text, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(InputError, match=re.escape(f"key {key!r} appears twice")):
            loader(str(path))

    @pytest.mark.parametrize("loader", [io.load_family, io.load_measure, io.load_quantum])
    def test_integer_past_the_digit_limit_rejected(self, tmp_path, loader):
        # json.load alone raises a bare ValueError for the 5,000-digit literal
        path = tmp_path / "long.json"
        path.write_text('{"tables": {"1,1": [' + "7" * 5000 + "]}}")
        with pytest.raises(InputError, match="holds a number too long to read"):
            loader(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(InputError, match="not valid JSON"):
            io.load_family(str(path))
