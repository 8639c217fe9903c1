import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from operpop.cli import FIELDS, main, parse_problem


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
        code, report = run(["solve", path, "--rep", "general"], tmp_path, capsys)
        assert code == 0
        assert report["verification"] == "DY=0: exact"


class TestVerify:
    def test_half(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", HALF)
        code, report = run(["verify", path, "--path", "1"], tmp_path, capsys)
        assert code == 0
        assert report["oper_pairings"] == "exact"
        assert report["verification"] == "DY=0: exact"


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
