"""Malformed input never escapes the loaders as anything but an LqhvError.

Each example takes a valid family, measure or quantum document, replaces
one randomly chosen subtree (the whole document included) with random
JSON, and feeds the result to the CLI or the loader.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io
from lqhv.cli import main
from lqhv.errors import LqhvError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)
PICK = st.integers(min_value=0)

FAMILIES = [io.family_to_json(L.pr_box()),
            io.family_to_json(L.random_scenario_family(L.Scenario((2, 1, 2), (2, 3, 2)), 5,
                                                       L.FLOAT))]
MEASURE = io.measure_to_json(L.build_deterministic_measure(L.pr_box()).measure)
MEASURE["atoms"] = list(MEASURE["atoms"])
QUANTUM = io.quantum_to_json(L.chsh_optimal_scenario())


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutate(doc, pick: int, value):
    """Copy of `doc` with the pick-th subtree (pre-order) replaced by `value`."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    path = paths[pick % len(paths)]
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), PICK, JSON_VALUES)
def test_check_exits_with_a_code(tmp_path_factory, doc, pick, value):
    path = tmp_path_factory.getbasetemp() / "fuzz_family.json"
    path.write_text(json.dumps(mutate(doc, pick, value)))
    assert main(["check", str(path)]) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(PICK, JSON_VALUES)
def test_quantum_exits_with_a_code(tmp_path_factory, pick, value):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_quantum.json"
    path.write_text(json.dumps(mutate(QUANTUM, pick, value)))
    assert main(["quantum", str(path), "-o", str(base / "fuzz_born.json")]) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(PICK, JSON_VALUES)
def test_measure_loader_raises_only_lqhv_errors(pick, value):
    try:
        io.measure_from_json(mutate(MEASURE, pick, value))
    except LqhvError:
        pass
