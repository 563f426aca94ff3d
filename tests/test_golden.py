"""Output bytes of `lqhv build --json`, `lqhv lhv --json`, failing
`lqhv check --json`, `lqhv quantum --json` and `lqhv expect --json` on
fixed inputs.

Each build case writes a family file, builds and decides it through
`cli.main`, and compares sha256 digests against ones recorded with the
`Fraction`-array implementation: the family file, the measure file, the
verdict file and both `--json` reports with their timings and input and
output paths removed. Each check case writes a signaling family and
compares the digest of its check report, reduced the same way, which pins
the witness the check names. The quantum case reads the CHSH-optimal
singlet and the expect cases a seeded CHSH family, and each compares its
report the same way. A change that moves any output byte fails here.
"""

import contextlib
import hashlib
import io as text_io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lqhv as L
from lqhv import io
from lqhv.cli import main

S33 = L.Scenario((3, 3), (2, 2))
S222 = L.Scenario((2, 2, 2), (2, 2, 2))
S132 = L.Scenario((1, 3, 2), (3, 2, 2))

CASES = {
    "chsh-7-rational": lambda: L.random_nonsignaling_family(7),
    "chsh-7-float": lambda: L.convert_family(L.random_nonsignaling_family(7), L.FLOAT),
    "iso-0.6-rational": lambda: L.isotropic_box(Fraction(3, 5)),
    "S33-3-rational": lambda: L.random_scenario_family(S33, 3),
    "S33-3-float": lambda: L.random_scenario_family(S33, 3, L.FLOAT),
    "S222-5-rational": lambda: L.random_scenario_family(S222, 5),
    "S222-5-float": lambda: L.random_scenario_family(S222, 5, L.FLOAT),
    "S132-2-rational": lambda: L.random_scenario_family(S132, 2),
}

# family file, build report, measure file, lhv report, verdict file
GOLDEN = {
    "S132-2-rational": (
        "280ec5e8771550d12c860b482ef583edf654ecb81a2985def769418af0b4f365",
        "86c48db73a32ab30787291ba70b64ca00e54ba9e7ecf073de24c403154e37398",
        "3d5d00300def76dce27d83b32918af95e73026ce176ab4c3c8c5297e52ed4d21",
        "65230ef0c8e313a6fba8d36f923827f5ec71478764203c1d23370f7f0e83eaa5",
        "3711c89a095d3c4dd4d05045d42656cc1020911e2b5fbcb587469978249bac10"),
    "S222-5-float": (
        "a07b51af413f95c01ca5caf2e417bd14c236521c1116a5d131204571e2347f05",
        "bd0b9b72f8556eca747dc09af2b715a037260b26016aa93e7922137fc5ce79a7",
        "c32bdc9622bbb28d4edabc980a8239cbfe821eb7a07b6e5d2b63c18254678f9b",
        "4e7bd44d8e62d210d6ece17851921212f5291a1b3b55794dc2a49273a04da1d3",
        "cd10207f000f80b580cda9c9c88cefeab8b4d407df52099a168ee72087eab72a"),
    "S222-5-rational": (
        "a4a07b867a0114ad68791361b5754fe4955287bc4a43d27567a706107fd17139",
        "2ebe8599915d58426a1997859299ca9f9996af463f94aabcf229adfbad57fb5b",
        "04c4ec8e7bf58ba3cb01ba73f8ef522c83152156f63e82ca3819f33fd9306a9b",
        "39e84e78b83c521410b3ca63057bb336aaf4b69c226ba9b36ed7340911a4edc4",
        "279f0078871f0674406c5d8b67860377f17080a44a38e86c35b1990bca856f5a"),
    "S33-3-float": (
        "df31da669af004c42916f28d443bcd4a895d2431176179bd728e01dd3bc59872",
        "d217369b0781f77256865201f44080c4019794141d713512604e0f650c2f3a4b",
        "efb7633a3a394400fabdfae5e86495a6c8963d15b830709f6f990f3fca061c78",
        "09d693ca88dd8a98736ce751c7c2b59f20e3204eef86718585d5cbaebcbf61fa",
        "8e51fd8b31d5a93641b129622730942bdda96f242b68eee78de20c4366f0d392"),
    "S33-3-rational": (
        "3afa81d762f6b1f95aa1b9db9df498abcafa1250551b1dab42c91fc681f65ddf",
        "0236747ae9ef02a6a9a4e477e7667620bc870ac2e4d1e69a0f0c757058a86879",
        "90f47e24b410eaf1880bce8314744e271a72b080a4b7b1a3b50a9830aaf2117e",
        "0eb942947878190789066a207a845d344d14b4170de3bc6ca091adc377b4d096",
        "766827067535716d6de06ce47f10445a3b94bb496f7447d6e070787e29937994"),
    "chsh-7-float": (
        "2b7ce617d1bffde5704e592d533e750e853f91eb7afef42e46a5144d1bae1457",
        "42f948ad1960eebb87ae4975965430bd40ece9d09a5dd03ddc824dc1973c5172",
        "943a3d951e41b95720d676855e55dfcf962ae9bdb4d65557ee94b2a953d89bce",
        "8c741a790b4178090405819cfaf7dcfeb6a98d3342e6da37323931ecfd1e2ec5",
        "d0c5ebdcb29d521574733f5ce230094ac70df1674b36492d5ed47e8d9ebb4b17"),
    "chsh-7-rational": (
        "4814fb9d9b1f823f8ad5794671664497ac6f059072adb2c317bcc69bbe513be8",
        "23fa987848c0c594edced7c94a7d80531291b54c9cba29f1e4591265b2c5c90e",
        "0811cb65166943923b372bb3df7748179f4ba4f28652cd1ae3afb6075c5803be",
        "dc5c7b5552867ed6870b9af07ecf133ab09f6233194c92a2bb605a423d2e60ea",
        "c474448ee6ba1ec62983fa3a104d221a7e055702b45bde0c107799f00d746a07"),
    "iso-0.6-rational": (
        "6083b83627e59a17ff9d18a39edbf30126a8f5b5cb68be84a7c58d1cefcbec36",
        "11bcb6f1716aa127305e1f48ad617b1a12cc81cb08864269f437e642c030db7e",
        "50e4e19953183ec916d2d2611f283c21f5e409ac223ab2f29a8b5f629b770866",
        "c552fc06808b8b9656067e34447a08749b00b6679729a718701575be38e901be",
        "8545513c6495daa785872f572aad1f6b69795497351edaa234346eba235ba340"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, code: int = 0) -> str:
    """sha256 of a --json report without its timings, input and output
    paths, from a run that exits `code`."""
    out = text_io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    report = json.loads(out.getvalue())
    for key in ("timings", "input", "output"):
        report.pop(key, None)
    return _sha(json.dumps(report, sort_keys=True).encode())


def case_digests(name: str, workdir) -> tuple[str, ...]:
    family, measure, verdict = (str(workdir / f"{name}.{kind}.json")
                                for kind in ("family", "measure", "verdict"))
    io.save_family(CASES[name](), family)
    build = _run(["build", family, "--json", "-o", measure])
    lhv = _run(["lhv", family, "--json", "-o", verdict])
    return (_sha(Path(family).read_bytes()), build, _sha(Path(measure).read_bytes()),
            lhv, _sha(Path(verdict).read_bytes()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_unchanged(name, tmp_path):
    assert case_digests(name, tmp_path) == GOLDEN[name]


def _bent(family):
    """`family` made to signal: half of its first table's largest entry
    moves to the cell that differs only in site 1's outcome (the next one,
    cyclically)."""
    stacked = np.array(family.stacked)
    first = stacked[(0,) * family.scenario.n_parties]
    cell = np.unravel_index(int(np.argmax(first)), first.shape)
    half = first[cell] / 2
    first[cell] -= half
    first[((cell[0] + 1) % first.shape[0],) + cell[1:]] += half
    return L.DistributionFamily.from_stacked(family.scenario, stacked, family.mode)


S232 = L.Scenario((2, 3, 2), (3, 2, 2))
S2x5 = L.Scenario((2,) * 5, (2,) * 5)

CHECK_CASES = {
    "signaling-rational": lambda: L.signaling_example(),
    "signaling-float": lambda: L.signaling_example(L.FLOAT),
    "S232-3-rational": lambda: _bent(L.random_scenario_family(S232, 3)),
    "S232-3-float": lambda: _bent(L.random_scenario_family(S232, 3, L.FLOAT)),
    "S2x5-5-rational": lambda: _bent(L.random_scenario_family(S2x5, 5)),
    "S2x5-5-float": lambda: _bent(L.random_scenario_family(S2x5, 5, L.FLOAT)),
}

# the failing check report
CHECK_GOLDEN = {
    "S232-3-float": "dc6e235d09970e7f737606feb8ebcecfecff2d87e2342698e35a32472f475e21",
    "S232-3-rational": "f07ce2c570938f45a482f87fbaa2e94131b3ccb80cf256dc00476ae13d081ded",
    "S2x5-5-float": "cc5887fdc227185654b6d40fd2d39afb5bcc5e0a672a40340a8b3837bc191b9a",
    "S2x5-5-rational": "ed654e5454ab9b8a8750e42365a4b07f8cf85648fc1a915d3fa1c3e6af184edf",
    "signaling-float": "09b55db69a25aa0918c9beb9c44fc46045aa6fa6f80eaa2719bdf4941c04b6c2",
    "signaling-rational": "fd2fb403e7158d3a4307ed052b10b5a31dd927a4c76917b1e6a7eaa26b77798d",
}


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_report_bytes_are_unchanged(name, tmp_path):
    family = str(tmp_path / f"{name}.family.json")
    io.save_family(CHECK_CASES[name](), family)
    assert _run(["check", family, "--json"], 2) == CHECK_GOLDEN[name]


# the quantum report on the CHSH-optimal singlet
QUANTUM_GOLDEN = "e3e31489c3ea1268d80b8e74d233115ce43d90ed0badbafab5146bbbe087b18a"


def test_quantum_report_bytes_are_unchanged(tmp_path):
    scenario = str(tmp_path / "q.json")
    io.save_quantum(L.chsh_optimal_scenario(), scenario)
    assert _run(["quantum", scenario, "--json", "-o", str(tmp_path / "f.json")]) == QUANTUM_GOLDEN


# the expect report at tuple (1, 2) with [[1, -1], [1, -1]], by mode and
# whether it compares the constructed measure's value
EXPECT_GOLDEN = {
    ("rational", False): "76aaec361e9d746782f16d7d3dfe3c12d57e51dd201938f4fccba86558574f07",
    ("rational", True): "13d9f54007fbabba1c389f5143a738b8027ae8f44b0f69cf14dab6731354596d",
    ("float", False): "f8ad22ec6b6b5ec84db34a3bc36ac8d333780b1dea0e86a353f46cca1ca6a1e4",
    ("float", True): "7e1dbab71ab0530fb5a160199fea4a21079648e09bc7a7aec04f99ae96fc2970",
}


@pytest.mark.parametrize("mode,compare", sorted(EXPECT_GOLDEN))
def test_expect_report_bytes_are_unchanged(mode, compare, tmp_path):
    family = str(tmp_path / "f.json")
    io.save_family(L.random_nonsignaling_family(7, mode=mode), family)
    argv = ["expect", family, "--tuple", "1,2", "--observables", "[[1,-1],[1,-1]]", "--json"]
    assert _run(argv + ["--compare-model"] * compare) == EXPECT_GOLDEN[mode, compare]
