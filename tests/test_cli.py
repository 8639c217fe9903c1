import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import operpop
from operpop import miura, solutions
from operpop.cli import FIELDS, build_parser, main, parse_problem
from operpop.exactalg import Poly


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HALF = {
    "lie_type": "A",
    "rank": 1,
    "weights": [[1], [1]],
    "points": ["0", "1"],
    "tuple": [["-1/2", "1"]],
    "bethe": [["1/2"]],
}

A2_N0 = {"lie_type": "A", "rank": 2, "weights": [], "points": [], "tuple": [["1"], ["1"]]}
B2_N0 = {"lie_type": "B", "rank": 2, "weights": [], "points": [], "tuple": [["1"], ["1"]]}
G2_N0 = {"lie_type": "G", "rank": 2, "weights": [], "points": [], "tuple": [["1"], ["1"]]}
F4_N0 = {"lie_type": "F", "rank": 4, "weights": [], "points": [], "tuple": [["1"]] * 4}


def run(args, tmp_path, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_half_example(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 0
        assert report["fertile"] is True
        assert report["directions"][0]["canonical"] == ["1/4", "-1/2", "1"]
        assert report["critical"] is True

    def test_constant_seed(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", A2_N0)
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 0
        for entry in report["directions"]:
            assert entry["canonical"] == ["0", "1"]

    def test_malformed_rational(self, tmp_path, capsys):
        doc = dict(HALF, tuple=[["1//2", "1"]])
        path = write(tmp_path, "p.json", doc)
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 2
        assert "exact rational" in report["error"]

    def test_infertile_exit_code(self, tmp_path, capsys):
        doc = {
            "lie_type": "A",
            "rank": 1,
            "weights": [[2]],
            "points": ["0"],
            "tuple": [["-1", "1"]],
        }
        path = write(tmp_path, "p.json", doc)
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 1
        assert report["fertile"] is False


class TestDescend:
    def test_canonical(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["descend", path, "--direction", "1"], tmp_path, capsys)
        assert code == 0
        assert report["descendant"] == [["1/4", "-1/2", "1"]]

    def test_base_retention(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(
            ["descend", path, "--direction", "1", "--param", "0:1"], tmp_path, capsys
        )
        assert code == 0
        assert report["descendant"] == [["-1/2", "1"]]

    def test_bad_param(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, _ = run(["descend", path, "--direction", "1", "--param", "x"], tmp_path, capsys)
        assert code == 2


class TestPopulate:
    @pytest.mark.parametrize(
        "doc,count",
        [
            ({"lie_type": "A", "rank": 1, "weights": [], "points": [], "tuple": [["1"]]}, 2),
            (A2_N0, 6),
            (B2_N0, 8),
        ],
    )
    def test_cell_counts(self, doc, count, tmp_path, capsys):
        path = write(tmp_path, "p.json", doc)
        code, report = run(["populate", path], tmp_path, capsys)
        assert code == 0
        assert report["cell_count"] == count
        for row in report["cells"]:
            assert row["length"] == len(row["weyl_word"])

    def test_max_cells_caps_the_report(self, tmp_path, capsys):
        doc = {"lie_type": "E", "rank": 6, "weights": [], "points": [], "tuple": [["1"]] * 6}
        code, report = run(["populate", write(tmp_path, "p.json", doc), "--max-cells", "10"], tmp_path, capsys)
        assert code == 0
        assert report["cell_count"] == len(report["cells"]) == 10

    def test_max_cells_from_a_non_dominant_seed(self, tmp_path, capsys):
        doc = {"lie_type": "A", "rank": 2, "weights": [[1, 0], [0, 1]], "points": ["0", "1"], "tuple": [["1"], ["1"]]}
        _, report = run(["populate", write(tmp_path, "p.json", doc)], tmp_path, capsys)
        top = next(row["sample"] for row in report["cells"] if row["degrees"] == [4, 4])
        path = write(tmp_path, "top.json", dict(doc, tuple=top))
        for n in range(1, 8):
            code, report = run(["populate", path, "--max-cells", str(n)], tmp_path, capsys)
            assert code == 0
            assert report["cell_count"] == len(report["cells"]) == min(n, 6)
            assert report["base_degrees"] == [0, 0]


class TestSolve:
    def test_half_example(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["solve", path], tmp_path, capsys)
        assert code == 0
        assert report["verification"] == "DY=0: exact"
        exponents = {
            key
            for row in report["solution"]
            for entry in row
            for key in entry
        }
        assert exponents <= {"0", "1/2"}

    def test_trivial_seed_entries(self, tmp_path, capsys):
        doc = {"lie_type": "A", "rank": 1, "weights": [], "points": [], "tuple": [["1"]]}
        path = write(tmp_path, "p.json", doc)
        code, report = run(["solve", path], tmp_path, capsys)
        assert code == 0
        values = {v for row in report["solution"] for entry in row for v in entry.values()}
        assert values == {"1", "-x"}

    def test_unsupported_type_suggests_general(self, tmp_path, capsys):
        doc = {"lie_type": "G", "rank": 2, "weights": [], "points": [], "tuple": [["1"], ["1"]]}
        path = write(tmp_path, "p.json", doc)
        code, report = run(["solve", path], tmp_path, capsys)
        assert code == 2
        assert "general" in report["error"]

    def test_general_with_path(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(B2_N0, path=[1, 2]))
        code, report = run(["solve", path], tmp_path, capsys)
        assert code == 0
        assert report["verification"] == "DY=0: exact"

    def test_a_path_selects_the_general_builder(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", A2_N0)
        code, solved = run(["solve", path, "--path", "1,2"], tmp_path, capsys)
        assert code == 0 and solved["builder"] == "general"
        code, verified = run(["verify", path, "--path", "1,2"], tmp_path, capsys)
        assert code == 0 and solved["solution"] == verified["solution"]

    @pytest.mark.parametrize("doc,args", [(dict(A2_N0, path=[]), []), (A2_N0, ["--path", ""])])
    def test_an_empty_path_selects_the_general_builder(self, doc, args, tmp_path, capsys):
        path = write(tmp_path, "p.json", doc)
        code, report = run(["solve", path, *args], tmp_path, capsys)
        assert code == 0 and report["builder"] == "general"
        assert report["problem"]["path"] == []


class TestVerify:
    def test_half(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["verify", path, "--path", "1"], tmp_path, capsys)
        assert code == 0
        assert report["oper_pairings"] == "exact"
        assert report["verification"] == "DY=0: exact"


class TestVerifyBuildsOneOper:
    def test_failing_pairing_report(self, tmp_path, capsys, monkeypatch):
        rhs = miura.wronskian_rhs
        monkeypatch.setattr(miura, "wronskian_rhs", lambda y, i, p: rhs(y, i, p) * Poly([1, 1]))
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["verify", path, "--path", "1"], tmp_path, capsys)
        assert code == 1
        assert list(report) == ["command", "problem", "generic", "oper_pairings", "elapsed_s"]
        assert report["generic"] is True
        assert report["oper_pairings"] == "oper pairing invariant failed in direction 1"

    def test_one_oper_per_job(self, tmp_path, capsys, monkeypatch):
        original, calls = miura.miura_from_tuple, []

        def counted(y, p):
            calls.append(p)
            return original(y, p)

        for name, module in list(sys.modules.items()):
            if name.startswith("operpop") and getattr(module, "miura_from_tuple", None) is original:
                monkeypatch.setattr(module, "miura_from_tuple", counted)
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["verify", path, "--path", "1"], tmp_path, capsys)
        assert code == 0 and report["oper_pairings"] == "exact"
        assert len(calls) == 1

    def test_pairings_are_checked_for_a_type_without_a_rep(self, tmp_path, capsys, monkeypatch):
        # the general builder builds D before it looks for a representation
        original, calls = miura.miura_from_tuple, []

        def counted(y, p):
            calls.append(p)
            return original(y, p)

        monkeypatch.setattr(solutions, "miura_from_tuple", counted)
        path = write(tmp_path, "p.json", G2_N0)
        code, report = run(["verify", path, "--path", "1"], tmp_path, capsys)
        assert code == 2 and report["oper_pairings"] == "exact"
        assert len(calls) == 1


@pytest.mark.parametrize("args", [["solve"], ["verify", "--path", "1"]])
def test_general_builder_failure_suggests_no_builder(args, tmp_path, capsys):
    for doc, name in ((G2_N0, "G_2"), (F4_N0, "F_4")):
        path = write(tmp_path, "p.json", doc)
        code, report = run([args[0], path, *args[1:]], tmp_path, capsys)
        assert code == 2
        assert name in report["error"] and "--rep general" not in report["error"]


# types whose dual's minuscule representation is not sl_m or sp_2r: the
# 8-dimensional spin and vector reps of C3 and D4, the 27-dimensional rep of E6
MINUSCULE_CORPUS = {
    "c3_n0": ({"lie_type": "C", "rank": 3, "weights": [], "points": [], "tuple": [["1"]] * 3}, "3,2,1"),
    "c3": (
        {"lie_type": "C", "rank": 3, "weights": [[1, 0, 0], [0, 0, 1]], "points": ["-1", "2"], "tuple": [["1"]] * 3},
        "1,3,2",
    ),
    "d4_n0": ({"lie_type": "D", "rank": 4, "weights": [], "points": [], "tuple": [["1"]] * 4}, "2,1,3,4"),
    "e6_n0": ({"lie_type": "E", "rank": 6, "weights": [], "points": [], "tuple": [["1"]] * 6}, "1,3,4"),
}


@pytest.mark.parametrize("name", sorted(MINUSCULE_CORPUS))
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_minuscule_types_solve_exactly(name, command, tmp_path, capsys):
    doc, general_path = MINUSCULE_CORPUS[name]
    path = write(tmp_path, "p.json", doc)
    code, report = run([command, path, "--path", general_path], tmp_path, capsys)
    assert code == 0 and report["verification"] == "DY=0: exact"
    assert len(report["solution"]) == solutions.default_rep(parse_problem(doc)[0]).dim


A2_DESK = {
    "lie_type": "A", "rank": 2, "weights": [[1, 0], [0, 1]], "points": ["0", "1"],
    "tuple": [["-1/3", "1"], ["-2/3", "1"]],
}
A3_DESK = {
    "lie_type": "A", "rank": 3, "weights": [[1, 0, 0], [1, 0, 0]], "points": ["0", "1"],
    "tuple": [["-1/2", "1"], ["1"], ["1"]],
}
B2_DESK = {
    "lie_type": "B", "rank": 2, "weights": [[1, 0], [0, 1]], "points": ["0", "5"],
    "tuple": [["-2", "1"], ["-4", "1"]],
}
B3_N0 = {"lie_type": "B", "rank": 3, "weights": [], "points": [], "tuple": [["1"], ["1"], ["1"]]}
# samples of the zero-weight B3 cells with words [3, 2] and [3, 2, 3, 1, 2, 3, 1, 2, 1]
B3_CELL_2 = dict(B3_N0, tuple=[["1"], ["0", "1"], ["1", "0", "0", "1"]])
B3_CELL_9 = dict(B3_N0, tuple=[
    ["0", "-32", "0", "10", "0", "1"],
    ["-3616/45", "0", "1798/9", "0", "1327/9", "0", "5/3", "0", "1"],
    ["0", "-12769/135", "0", "7910/81", "0", "-3259/27", "0", "-70/3", "0", "1"],
])
# sample of the zero-weight B4 cell with word [4, 3, 2, 1]: solution_BC
# continues the folded sequences after 3, 2 and 1 native steps
B4_CELL_4 = {
    "lie_type": "B", "rank": 4, "weights": [], "points": [],
    "tuple": [["0", "1"], ["1", "0", "1"], ["0", "3", "0", "1"], ["1", "0", "0", "21", "0", "42/5", "0", "1"]],
}
# (document, --path of the general builder)
SOLUTION_CORPUS = {
    "half": (HALF, "1"),
    "a2": (A2_DESK, "1,2"),
    "a3": (A3_DESK, "1,2,3"),
    "b2": (B2_DESK, "2,1"),
    "b3_cell_2": (B3_CELL_2, "3,2,1"),
    "b3_cell_9": (B3_CELL_9, "3,2,1"),
    "b4_cell_4": (B4_CELL_4, "4,3,2,1"),
}
# sha256 of json.dumps(report["solution"], sort_keys=True); recorded when each
# solution entry was still built by twisted-field arithmetic, so the report
# bytes do not depend on how a solution is held.  The b4_cell_4 ones were
# recorded while solution_BC still re-solved the folded sequences from the
# seed.
SOLUTION_DIGESTS = {
    "a2/solve": "18b30330379bc437bd2e43899fc09d5ed007aada9625b01fccfb6e2fec27ada9",
    "a2/general": "143952fb3d8616337828b8e57c323fe013f2dc3a8969eb9e89056d9869a2b26f",
    "a2/verify": "3c8b0b49887189a7055a5bc5d7749fc51b58506beb9c6031bf00014722464077",
    "a3/solve": "db8d3d8cda318ba45328f4a0086924afac85cc26431cfe7bdb61cd2a370e0c56",
    "a3/general": "06921ecb684aeda68d4e5492ddb51a49f46a01343c6b76d1db5ef948fa73d2ea",
    "a3/verify": "79cb364c837f1c460fe48529dbf44e6721b11254e8800e1e8b337075e3c2a4d7",
    "b2/solve": "00df38ea3ad2aeb4ce6a991f1792f6f50239202e7533a6e4672997c7b7cde1eb",
    "b2/general": "bf87a5768979aaff90778a11ae044d7c2dda87e7eebd6a0bbe90b801b6352b48",
    "b2/verify": "37c734cd1154cc3649d34a7a8e550de4b07112f579ea29a657c5d20a3c3e814e",
    "b3_cell_2/solve": "d7db74cbc1e392c577cbf4fbeab97180827cf1ca5c795aa829c8b8dff54ba775",
    "b3_cell_2/general": "cb42cb12b126edd42942bbe1da27b4f7adb92a333fdd5e8655ea2f458ff55d55",
    "b3_cell_2/verify": "0665eab87579872678984aa65cdaf31fcb0c133d34c1345ce97a23c4642f6ff6",
    "b3_cell_9/solve": "c2d05433fd289d25be0dabcff380279dff96ee29b2c9c3a42573d6adc1aef407",
    "b3_cell_9/general": "cd1b942ebaa99526cd6cccedb36e9a2241549f76323557e980fe782873b3617f",
    "b3_cell_9/verify": "94f7c028afd45708e9633a975a47e419e99d2a37788b7a300472a67c8c42c444",
    "b4_cell_4/solve": "db11892a539fd8b1fac3891ab9491b70d22a7fb6b6bb56b686622830b3fdecce",
    "b4_cell_4/general": "92a0a24eb0350c2e6dd8b5edf8a36ae1b407dfac20e0770396b09f33453fbc79",
    "b4_cell_4/verify": "8d9f4b9b53bdf0150be7d899d7c0540bad6d17eb80fabe25470560ba4829fd8e",
    "half/solve": "10fbd0c0ab56f818cdf6e0d87aacd3b61b859327f883ddf6107108b17cc0c4fb",
    "half/general": "92c2360949a15b288e817b9bc4337b4bd5a65d8c501599f9e5ae34f1fd3c7d48",
    "half/verify": "92c2360949a15b288e817b9bc4337b4bd5a65d8c501599f9e5ae34f1fd3c7d48",
}


def _solution_argv(name, command, path):
    doc, general_path = SOLUTION_CORPUS[name]
    if command == "solve":
        return ["solve", path]
    if command == "general":
        return ["solve", path, "--path", general_path]
    return ["verify", path, "--path", "1"]


@pytest.mark.parametrize("name", sorted(SOLUTION_CORPUS))
@pytest.mark.parametrize("command", ["solve", "general", "verify"])
def test_solution_strings_are_pinned(name, command, tmp_path, capsys):
    path = write(tmp_path, "p.json", SOLUTION_CORPUS[name][0])
    code, report = run(_solution_argv(name, command, path), tmp_path, capsys)
    assert code == 0 and report["verification"] == "DY=0: exact"
    digest = hashlib.sha256(json.dumps(report["solution"], sort_keys=True).encode()).hexdigest()
    assert digest == SOLUTION_DIGESTS[f"{name}/{command}"]


POPULATE_CORPUS = {
    "g2": {"lie_type": "G", "rank": 2, "weights": [[1, 0], [0, 1]], "points": ["0", "1"], "tuple": [["1"], ["1"]]},
    "c3": {
        "lie_type": "C", "rank": 3, "weights": [[1, 0, 0], [0, 0, 1]], "points": ["-1", "2"],
        "tuple": [["1"], ["1"], ["1"]],
    },
    "b2": {
        "lie_type": "B", "rank": 2, "weights": [[1, 0], [0, 1], [1, 1]], "points": ["0", "2", "-1"],
        "tuple": [["1"], ["1"]],
    },
    "a4_n0": {"lie_type": "A", "rank": 4, "weights": [], "points": [], "tuple": [["1"]] * 4},
    "b3_n0": B3_N0,
}
# sha256 of json.dumps(report, sort_keys=True) without elapsed_s; recorded
# while every gcd still ran Euclid over Q, so cells, samples and the
# exceptional records do not depend on how coprimality is decided.
POPULATE_DIGESTS = {
    "g2": "effbcb08edcb76002776de74717c7d576c0ce554bdee57749112c13b21e27c36",
    "c3": "e458035a7ce17a4ddd96eed3740139ee3e5214ccd3971e8d1655d19b117493e9",
    "b2": "abead9839f7ec9e0b9de8404cd818f7de5afc93dca83791cd68d02115bd8842b",
    "a4_n0": "3d59a34b66d7c02fcf93e51e13fd81c864d54525ce6d8edfe56ff54a022ebebd",
    "b3_n0": "8bbed12828d51cd8b02b9e7c9eb339e60996b74d89186f0334f787e4ca73edef",
}


@pytest.mark.parametrize("name", sorted(POPULATE_CORPUS))
def test_populate_reports_are_pinned(name, tmp_path, capsys):
    path = write(tmp_path, "p.json", POPULATE_CORPUS[name])
    code, report = run(["populate", path], tmp_path, capsys)
    assert code == 0
    report.pop("elapsed_s")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == POPULATE_DIGESTS[name]



# (document, extra argv) for check and descend reports with rational
# canonical partners, Bethe residuals and descendants.
CHECK_DESCEND_CORPUS = {
    "check/half": (HALF, []),
    "check/a2": (dict(A2_DESK, bethe=[["1/3"], ["2/3"]]), []),
    "check/a2_off": (dict(A2_DESK, bethe=[["1/5"], ["7/3"]]), []),
    "check/b2": (dict(B2_DESK, bethe=[["2"], ["4"]]), []),
    "check/b2_half": (dict(B2_DESK, points=["0", "5/2"], tuple=[["-1", "1"], ["-2", "1"]], bethe=[["1"], ["2"]]), []),
    "check/b3_cell_9": (B3_CELL_9, []),
    "descend/half": (HALF, ["--direction", "1", "--param=2/3:-5/7"]),
    "descend/a2": (A2_DESK, ["--direction", "2", "--param=1/3:2"]),
    "descend/b2": (B2_DESK, ["--direction", "1", "--param=1:0"]),
    "descend/b3_cell_9": (B3_CELL_9, ["--direction", "1", "--param=-3/2:1/5"]),
    "descend/b3_cell_9_d3": (B3_CELL_9, ["--direction", "3", "--param=2:-1/3"]),
}
# sha256 of json.dumps(report, sort_keys=True) without elapsed_s; recorded
# while polynomial coefficients were still held as Fractions.
CHECK_DESCEND_DIGESTS = {
    "check/half": "1384374d037b465e5507e084553f2ee148e08c1533fa445d2ecfca34587240c9",
    "check/a2": "adc1254c4ff2bb471d3e69da426f3a1e1286acf8e92ec37ca79c47806dc43d40",
    "check/a2_off": "b2f758acb2f96be6c8146eef2f48915e9a7b4d8dcdcd16a013b6ac98f505b85a",
    "check/b2": "3168e3fa4703f5e4b9b3a2f4bf48b6cee245f8f37ead1bbed0a4a702ebcd6c0c",
    "check/b2_half": "745d9b9e8270a7163393c86cd3d051db01b21073602a1cfd55710cfb97e8e330",
    "check/b3_cell_9": "f19195156ec861e2b2b5565b1003f1aca2d15177c1ec6f2d3e9532ad9cb98063",
    "descend/half": "0861ced92cec17d5a9d0a6f1ee6fe76bd4a3b7591493a27c3ebf5ecb0d8a7bfb",
    "descend/a2": "65aafd44629a56b9ed7656e8cc3c836cb404a262bc2213707352eda380fca5ec",
    "descend/b2": "a054e8b2e929c1aa743c50c6d0349fd360a488377c26ea49b0b5e91b6d8d22a6",
    "descend/b3_cell_9": "6b40292bac253530765eae0452e902c84e3db4764a9b2d2d224b9fdbc261aa82",
    "descend/b3_cell_9_d3": "b3e7169b23ff6db4786511d774f95294e9ee458495c59a8a37bc46e9e75eb985",
}


@pytest.mark.parametrize("name", sorted(CHECK_DESCEND_CORPUS))
def test_check_and_descend_reports_are_pinned(name, tmp_path, capsys):
    doc, extra = CHECK_DESCEND_CORPUS[name]
    path = write(tmp_path, "p.json", doc)
    code, report = run([name.split("/")[0], path, *extra], tmp_path, capsys)
    assert code == 0
    report.pop("elapsed_s")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == CHECK_DESCEND_DIGESTS[name]

class TestReportContract:
    def test_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(HALF, path=[1]))
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 0
        p1, y1, extras1 = parse_problem(report["problem"])
        p2, y2, extras2 = parse_problem(
            json.loads((tmp_path / "p.json").read_text())
        )
        assert p1 == p2 and y1 == y2
        assert extras1.keys() == extras2.keys()

    def test_determinism_modulo_timing(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        _, r1 = run(["check", path], tmp_path, capsys)
        _, r2 = run(["check", path], tmp_path, capsys)
        r1.pop("elapsed_s"), r2.pop("elapsed_s")
        assert r1 == r2

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        out = tmp_path / "report.json"
        code = main(["check", path, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fertile"] is True

    def test_output_may_be_the_problem_file(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code = main(["check", path, "--output", path])
        assert code == 0
        assert json.loads((tmp_path / "p.json").read_text())["fertile"] is True

    def test_missing_file(self, tmp_path, capsys):
        code, report = run(["check", str(tmp_path / "missing.json")], tmp_path, capsys)
        assert code == 2

    def test_parameters_is_an_unknown_field(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(HALF, parameters=[["1", "0"]]))
        code, report = run(["check", path], tmp_path, capsys)
        assert code == 2
        assert "parameters" in report["error"]


class TestParserReuse:
    def test_back_to_back_calls_carry_no_options(self, tmp_path, capsys):
        half, b2 = write(tmp_path, "half.json", HALF), write(tmp_path, "b2.json", B2_N0)
        calls = [
            ["descend", half, "--direction", "1", "--param", "1:2"],
            ["solve", half],
            ["solve", b2],  # no path: the B matrix builder
            ["descend", half],  # usage error: --direction is required
        ]

        def timeless(argv):
            code, report = run(argv, tmp_path, capsys)
            report.pop("elapsed_s")
            return code, report

        in_a_row = [timeless(argv) for argv in calls]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append(timeless(argv))
        assert in_a_row == alone
        assert [code for code, _ in in_a_row] == [0, 0, 0, 2]
        assert in_a_row[0][1]["parameter"] == ["1", "2"]
        assert in_a_row[1][1]["builder"] == "sl"
        assert in_a_row[2][1]["builder"] == "sp"
        assert "--direction" in in_a_row[3][1]["error"]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("operpop ")]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestEntryPoint:
    """`python -m operpop.cli` in a process of its own."""

    @staticmethod
    def _argv_env(*args):
        src = str(Path(operpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return [sys.executable, "-m", "operpop.cli", *args], env

    @classmethod
    def _run(cls, *args):
        argv, env = cls._argv_env(*args)
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("args", [["descend"], ["frobnicate"]])
    def test_usage_error_exits_2_with_json(self, args, tmp_path):
        path = write(tmp_path, "p.json", HALF)
        done = self._run(args[0], path, *args[1:])
        assert done.returncode == 2
        assert done.stderr == ""
        assert json.loads(done.stdout)["error"]

    def test_reader_closing_stdout_early_gives_no_traceback(self, tmp_path):
        # `operpop populate a5.json | head -c 100`: the report is far larger
        # than a pipe buffer, so the write meets a closed pipe
        doc = {"lie_type": "A", "rank": 5, "weights": [], "points": [], "tuple": [["1"]] * 5}
        argv, env = self._argv_env("populate", write(tmp_path, "p.json", doc))
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.wait(timeout=120)
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    def test_small_populate_exits_0(self, tmp_path):
        done = self._run("populate", write(tmp_path, "p.json", A2_N0))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["cell_count"] == 6
        assert done.stdout.count("\n") == 1  # one compact JSON line


RANK_80 = {"lie_type": "A", "rank": 80, "weights": [], "points": [], "tuple": []}

# (document, command and options, a fragment the error must name)
MALFORMED = [
    (dict(HALF, path=["x"]), ["check"], "path"),
    (dict(HALF, weights=5), ["check"], "weights"),
    (dict(HALF, parameters=[["1"]]), ["check"], "parameters"),
    (dict(HALF, rank=True), ["check"], "rank"),
    (dict(HALF, points=[0.5, 1]), ["check"], "points[1]"),
    (dict(HALF, tuple="a"), ["check"], "tuple"),
    (dict(HALF, path="1"), ["check"], "path"),
    (dict(HALF, path=[1.5]), ["check"], "path"),
    (HALF, ["descend", "--param", "0:0", "--direction", "1"], "--param"),
    (HALF, ["descend", "--direction", "x"], "--direction"),
    (HALF, ["populate", "--max-cells", "-1"], "--max-cells"),
    (RANK_80, ["check"], "tuple"),
    (dict(HALF, weights=[[1000000], [1]]), ["check"], "deg T_1"),
    (HALF, ["check", "--output", "/nonexistent/dir/report.json"], "--output"),
    (HALF, ["solve", "--rep", "general"], "--rep"),
    (HALF, ["verify", "--rep", "sl"], "--rep"),
    (dict(HALF, lie_type=["A"]), ["check"], "lie_type"),
    (dict(RANK_80, rank=65, tuple=[["1"]] * 65), ["check"], "rank"),
]


class TestInputBoundary:
    @pytest.mark.parametrize("doc,args,names", MALFORMED)
    def test_malformed_input_exits_2(self, doc, args, names, tmp_path, capsys):
        path = write(tmp_path, "p.json", doc)
        code = main([args[0], path, *args[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert names in report["error"]
        # the rank is checked against the tuple before any Cartan data exist
        assert report["elapsed_s"] < 1


# Integer leaves stay small on purpose: the boundary rejects deg T_i over
# MAX_T_DEGREE, but a well-formed document near that limit is still a long
# populate or solve run, not an input the boundary should reject.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "2", "-1/2", "1/0", "1e9", " 1 ", "x"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=8,
)
# Well-shaped values as well, so that many examples get past the boundary.
RATIONALS = st.integers(-3, 3) | st.sampled_from(["0", "1", "2", "-1/2", "1/3", "3/2"])
SHAPED = st.integers(1, 2) | st.lists(st.lists(RATIONALS, max_size=3), max_size=2)
OPTION_VALUES = st.sampled_from(["1", "2", "0", "-1", "1:0", "0:1", "0:0", "1,1", ""]) | st.text(max_size=5)
KEEP, DELETE = object(), object()


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    value=st.sampled_from([KEEP, DELETE]) | SHAPED | JSON_VALUES,
    unknown=st.just({})
    | st.dictionaries(st.text(max_size=4).filter(lambda k: k not in FIELDS), JSON_VALUES, max_size=1),
    command=st.sampled_from(["check", "descend", "populate", "solve", "verify"]),
    option=OPTION_VALUES,
    direction=OPTION_VALUES,
)
def test_fuzzed_documents_and_options(tmp_path_factory, field, value, unknown, command, option, direction):
    doc = dict(HALF, **unknown)
    if value is DELETE:
        doc.pop(field, None)
    elif value is not KEEP:
        doc[field] = value
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_text(json.dumps(doc))
    flag = {"descend": "--param", "populate": "--max-cells", "solve": "--path", "verify": "--path"}
    argv = [command, str(path)]
    if command == "descend":
        argv += ["--direction", direction]
    if command in flag:
        argv += [flag[command], option]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped main for {argv}")
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    if code == 2:
        assert report["error"]
