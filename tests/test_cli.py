"""Workspace parsing, command dispatch, exit codes, output formats."""

import copy
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecalc import cli
from conecalc.errors import InputError, InternalError
from conecalc.ring import FIBRE_PRODUCT_OVER_CURVE, MAX_EXPRESSION_CHARS
from conecalc.zariski import ZariskiCertificate, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKSPACES = os.path.join(ROOT, "bench", "workspaces")

FIBRE_WS = {
    "base": {"kind": "curve"},
    "bundles": [
        {"name": "E", "rank": 2, "degree": 0, "hn": [[1, -1], [1, 1]]},
        {"name": "E2", "rank": 2, "degree": 0},
    ],
    "space": {"kind": "fibre_product", "factors": ["E", "E2"]},
    "classes": {"alpha": ["1", "1", "0"]},
}

SEMISTABLE_WS = {
    "base": {"kind": "curve"},
    "bundles": [
        {"name": "E", "rank": 2, "degree": 0},
        {"name": "E2", "rank": 2, "degree": 0},
    ],
    "space": {"kind": "fibre_product", "factors": ["E", "E2"]},
}

CURVE_WS = {
    "base": {"kind": "curve"},
    "bundles": [{"name": "E", "rank": 2, "degree": 3}],
    "space": {"kind": "proj_bundle", "bundle": "E"},
}

RHO1_WS = {
    "base": {"kind": "surface_rho1", "L2": "1"},
    "bundles": [
        {"name": "S", "rank": 3, "c1": ["0"], "c2": "0", "semistable": True}
    ],
    "space": {"kind": "proj_bundle", "bundle": "S"},
}

RULED_WS = {
    "base": {"kind": "ruled_surface", "mu": "1/2"},
    "bundles": [
        {"name": "S", "rank": 3, "c1": ["2", "1"], "c2": "8/3", "semistable": True}
    ],
    "space": {"kind": "proj_bundle", "bundle": "S"},
}


def ws_file(tmp_path, payload, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# --- workspace parsing -----------------------------------------------------


def test_parse_workspace_ok():
    spec = cli.parse_workspace(json.dumps(FIBRE_WS))
    assert spec.base_kind == "curve"
    assert spec.preset.kind == FIBRE_PRODUCT_OVER_CURVE
    assert len(spec.factors) == 2
    assert spec.classes["alpha"] == (1, 1, 0)


def test_parse_workspace_accepts_bytes():
    spec = cli.parse_workspace(json.dumps(CURVE_WS).encode())
    assert spec.factors[0].degree == 3


def test_parse_workspace_bad_ladder():
    bad = json.loads(json.dumps(FIBRE_WS))
    bad["bundles"][0]["hn"] = [[1, 1], [1, -1]]
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(bad))
    assert "bundles[0]" in str(err.value)
    assert "slopes not strictly increasing" in str(err.value)


def test_parse_workspace_bad_rational_is_path_addressed():
    bad = json.loads(json.dumps(RHO1_WS))
    bad["base"]["L2"] = "1/0"
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(bad))
    assert str(err.value).startswith("base.L2:")
    assert "malformed rational" in str(err.value)


def test_parse_workspace_misc_rejections():
    with pytest.raises(InputError):
        cli.parse_workspace(b"\xff\xfe")
    with pytest.raises(InputError):
        cli.parse_workspace("not json")
    with pytest.raises(InputError):
        cli.parse_workspace("[1, 2]")

    surface_fibre = json.loads(json.dumps(RHO1_WS))
    surface_fibre["space"] = {"kind": "fibre_product", "factors": ["S", "S"]}
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(surface_fibre))
    assert "curve bases only" in str(err.value)

    dangling = json.loads(json.dumps(CURVE_WS))
    dangling["space"]["bundle"] = "missing"
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(dangling))
    assert "unknown bundle" in str(err.value)


def test_parse_workspace_surface_constraints():
    crooked = json.loads(json.dumps(RHO1_WS))
    crooked["bundles"][0] = {
        "name": "S",
        "rank": 2,
        "c1": ["2"],
        "c2": "0",
        "semistable": True,
    }
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(crooked))
    assert "space" in str(err.value)

    unstable = json.loads(json.dumps(RHO1_WS))
    unstable["bundles"][0]["semistable"] = False
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(unstable))
    assert "semistable" in str(err.value)


# --- commands through main() ------------------------------------------------


def test_cone_psef_text(tmp_path, capsys):
    code, out = run(capsys, ["-w", ws_file(tmp_path, SEMISTABLE_WS), "cone", "psef"])
    assert code == 0
    assert "(1, 0, 0)" in out and "(0, 1, 0)" in out and "(0, 0, 1)" in out
    assert "nef = psef: yes" in out


def test_cone_json_round_trips(tmp_path, capsys):
    code, out = run(
        capsys, ["-w", ws_file(tmp_path, FIBRE_WS), "--json", "cone", "psef"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is False
    assert payload["basis"] == ["xi", "zeta", "F"]
    assert payload["dim"] == 3
    assert payload["generators"] == [["1", "0", "-1"], ["0", "1", "0"], ["0", "0", "1"]]


def test_json_flag_after_command(tmp_path, capsys):
    code, out = run(
        capsys, ["-w", ws_file(tmp_path, FIBRE_WS), "cone", "nef", "--json"]
    )
    assert code == 0
    assert json.loads(out)["cone"] == "nef"


def test_member_yes_no(tmp_path, capsys):
    path = ws_file(tmp_path, SEMISTABLE_WS)
    code, out = run(capsys, ["-w", path, "member", "1,2,3"])
    assert code == 0 and "yes" in out

    code, out = run(capsys, ["-w", path, "member", "-1,0,0"])
    assert code == 1
    assert "violated inequality" in out and ">= 0" in out

    code, out = run(capsys, ["-w", path, "--json", "member", "-1,0,0"])
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["violated"]["kind"] == "facet"


def test_member_named_class_and_psef_flag(tmp_path, capsys):
    path = ws_file(tmp_path, FIBRE_WS)
    # (1,1,0) is pseudoeffective but not nef on this unstable pair
    code, _ = run(capsys, ["-w", path, "member", "alpha", "--cone", "psef"])
    assert code == 0
    code, _ = run(capsys, ["-w", path, "member", "alpha"])
    assert code == 1


def test_zariski_text_and_json(tmp_path, capsys):
    path = ws_file(tmp_path, FIBRE_WS)
    code, out = run(capsys, ["-w", path, "zariski", "1,1,0"])
    assert code == 0
    assert "terminal case: one_corank_one" in out
    assert "P: zeta + F" in out
    assert "verified: yes" in out

    code, out = run(capsys, ["-w", path, "--json", "zariski", "alpha"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "input": ["1", "1", "0"],
        "steps": [],
        "terminal": "one_corank_one",
        "P": ["0", "1", "1"],
        "N": [{"gen": ["1", "0", "-1"], "coeff": "1"}],
        "verified": True,
    }
    spec = cli.parse_workspace(json.dumps(FIBRE_WS))
    first, second = spec.factors
    cert = ZariskiCertificate.from_json(payload, first, second)
    assert verify(cert, first, second).ok


# Two ladders that each take several steps over both factors, with center
# ranks above 1: the first ends one_corank_one, the second both_corank_one.
LADDERS = {
    "one_corank_one": (
        [[2, -4], [3, 0], [1, 3]],
        [[1, -1], [2, 0], [2, 4]],
        "1/2,3,-1",
        """\
input: (1/2, 3, -1)
steps: 3
  1. factor first: center rank 2, multiplicity 1/2, to rank 4 degree 3
  2. factor second: center rank 1, multiplicity 3, to rank 4 degree 4
  3. factor second: center rank 2, multiplicity 3, to rank 2 degree 4
terminal case: one_corank_one
P: 3*zeta + 1/2*F
N: 1/2 * (xi - 3*F)
verified: yes
""",
        {
            "input": ["1/2", "3", "-1"],
            "steps": [
                {
                    "factor": "first",
                    "mult": "1/2",
                    "to": {"name": "E", "rank": 4, "degree": 3, "hn": [[3, 0], [1, 3]]},
                },
                {
                    "factor": "second",
                    "mult": "3",
                    "to": {"name": "G", "rank": 4, "degree": 4, "hn": [[2, 0], [2, 4]]},
                },
                {
                    "factor": "second",
                    "mult": "3",
                    "to": {"name": "G", "rank": 2, "degree": 4, "hn": [[2, 4]]},
                },
            ],
            "terminal": "one_corank_one",
            "P": ["0", "3", "1/2"],
            "N": [{"gen": ["1", "0", "-3"], "coeff": "1/2"}],
            "verified": True,
        },
    ),
    "both_corank_one": (
        [[2, -2], [2, 0], [1, 1]],
        [[2, -4], [2, 0], [1, 1]],
        "2,1,-5/2",
        """\
input: (2, 1, -5/2)
steps: 2
  1. factor first: center rank 2, multiplicity 2, to rank 3 degree 1
  2. factor second: center rank 2, multiplicity 1, to rank 3 degree 1
terminal case: both_corank_one
P: 1/2*F
N: 2 * (xi - F)
N: 1 * (zeta - F)
verified: yes
""",
        {
            "input": ["2", "1", "-5/2"],
            "steps": [
                {
                    "factor": "first",
                    "mult": "2",
                    "to": {"name": "E", "rank": 3, "degree": 1, "hn": [[2, 0], [1, 1]]},
                },
                {
                    "factor": "second",
                    "mult": "1",
                    "to": {"name": "G", "rank": 3, "degree": 1, "hn": [[2, 0], [1, 1]]},
                },
            ],
            "terminal": "both_corank_one",
            "P": ["0", "0", "1/2"],
            "N": [
                {"gen": ["1", "0", "-1"], "coeff": "2"},
                {"gen": ["0", "1", "-1"], "coeff": "1"},
            ],
            "verified": True,
        },
    ),
}


@pytest.mark.parametrize("case", list(LADDERS))
def test_multi_step_zariski_text_and_json(tmp_path, capsys, case):
    first, second, coords, text, certificate = LADDERS[case]
    workspace = {
        "base": {"kind": "curve"},
        "bundles": [
            {"name": name, "rank": sum(r for r, _ in hn), "degree": sum(d for _, d in hn), "hn": hn}
            for name, hn in (("E", first), ("G", second))
        ],
        "space": {"kind": "fibre_product", "factors": ["E", "G"]},
    }
    path = ws_file(tmp_path, workspace)
    assert run(capsys, ["-w", path, "zariski", coords]) == (0, text)
    expected = json.dumps(certificate, indent=2, sort_keys=True) + "\n"
    assert run(capsys, ["-w", path, "--json", "zariski", coords]) == (0, expected)


def test_zariski_requires_fibre_product(tmp_path, capsys):
    code, out = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS), "zariski", "1,0"])
    assert code == 2
    assert "fibre_product" in out


def test_ring_eval(tmp_path, capsys):
    code, out = run(
        capsys, ["-w", ws_file(tmp_path, CURVE_WS), "ring", "eval", "xi^2"]
    )
    assert code == 0
    assert "3*xi*f" in out

    code, out = run(
        capsys,
        ["-w", ws_file(tmp_path, RULED_WS), "--json", "ring", "eval", "lambda^3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [] and payload["text"] == "0"


def test_homog(tmp_path, capsys):
    code, out = run(capsys, ["-w", ws_file(tmp_path, RHO1_WS), "homog", "--k", "2"])
    assert code == 0 and "yes" in out
    code, out = run(
        capsys, ["-w", ws_file(tmp_path, RULED_WS), "--json", "homog", "--k=1"]
    )
    assert code == 0
    assert json.loads(out) == {"k": 1, "homogeneous": True}


def test_cone_k_flag_on_surface(tmp_path, capsys):
    code, out = run(
        capsys, ["-w", ws_file(tmp_path, RHO1_WS), "--json", "cone", "nef", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["basis"] == ["lambda^2", "lambda*piL", "F"]
    code, _ = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS), "cone", "nef", "--k", "2"])
    assert code == 2


def test_curve_spaces_reject_k_other_than_one(tmp_path, capsys):
    for payload, message in (
        (CURVE_WS, "curve spaces only carry k = 1 divisor cones"),
        (FIBRE_WS, "fibre product cones are computed for k = 1 only"),
    ):
        path = ws_file(tmp_path, payload)
        assert run(capsys, ["-w", path, "cone", "nef", "--k", "2"]) == (2, f"error: {message}\n")
        code, out = run(capsys, ["-w", path, "--json", "cone", "nef", "--k", "2"])
        assert code == 2
        assert json.loads(out) == {"error": message, "reasons": [message]}

def test_input_error_exit_codes(tmp_path, capsys):
    code, out = run(capsys, ["cone", "psef"])
    assert code == 2 and "workspace" in out

    code, out = run(capsys, ["-w", str(tmp_path / "absent.json"), "cone", "nef"])
    assert code == 2 and "cannot read file" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, out = run(capsys, ["-w", str(broken), "cone", "nef"])
    assert code == 2 and "not valid JSON" in out

    code, out = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS), "conjure"])
    assert code == 2 and "unknown command" in out

    code, out = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS)])
    assert code == 2 and "no command" in out


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(spec, command, json_output=False):
        raise InternalError("invariant cracked")

    monkeypatch.setattr(cli, "run_command", boom)
    code, out = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS), "cone", "nef"])
    assert code == 3
    assert "invariant cracked" in out


def test_unexpected_exception_exit_code(tmp_path, capsys, monkeypatch):
    def boom(spec, command, json_output=False):
        raise ZeroDivisionError("slipped through")

    monkeypatch.setattr(cli, "run_command", boom)
    code, out = run(capsys, ["-w", ws_file(tmp_path, CURVE_WS), "cone", "nef"])
    assert code == 3
    assert out.startswith("error: ") and "slipped through" in out
    code, out = run(capsys, ["--json", "-w", ws_file(tmp_path, CURVE_WS), "cone", "nef"])
    assert code == 3
    assert "slipped through" in json.loads(out)["error"]


def test_integer_c1_is_path_addressed(tmp_path, capsys):
    workspace = {
        "base": {"kind": "surface_rho1", "L2": "3"},
        "bundles": [{"name": "V", "rank": 4, "c1": 5, "c2": "9/2", "semistable": True}],
        "space": {"kind": "proj_bundle", "bundle": "V"},
    }
    with pytest.raises(InputError) as err:
        cli.parse_workspace(json.dumps(workspace))
    assert "bundles[0].c1" in str(err.value)
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert code == 2 and "bundles[0].c1" in out


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("defect_c1_int.json", None, "bundles[0].c1: needs 1 coordinate(s) for this base"),
        (
            "rho1.json",
            {"semistable": False},
            "space.bundle: surface presets need a semistable bundle",
        ),
        ("curve.json", {"name": 5}, "bundles[0].name: missing or not a non-empty string"),
    ],
    ids=["c1", "semistable", "name"],
)
def test_a_workspace_error_names_one_path(tmp_path, capsys, name, edit, message):
    path = os.path.join(WORKSPACES, name)
    if edit is not None:
        with open(path) as handle:
            workspace = json.load(handle)
        workspace["bundles"][0].update(edit)
        path = ws_file(tmp_path, workspace)
    assert run(capsys, ["-w", path, "cone", "nef"]) == (2, f"error: {message}\n")
    code, out = run(capsys, ["--json", "-w", path, "cone", "nef"])
    assert code == 2
    assert json.loads(out) == {"error": message, "reasons": [message]}


def test_error_json_payload(tmp_path, capsys):
    code, out = run(capsys, ["--json", "cone", "psef"])
    assert code == 2
    payload = json.loads(out)
    assert "error" in payload and payload["reasons"]


def test_selftest_json(capsys):
    code, out = run(capsys, ["--json", "selftest"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 9
    assert all(entry["ok"] for entry in payload["results"])
    # each check's own elapsed time, as a JSON float
    assert all(
        isinstance(entry["seconds"], float) and entry["seconds"] >= 0
        for entry in payload["results"]
    )


HN_PAIRS = "hn must be a list of [rank, degree] pairs"


@pytest.mark.parametrize(
    "bundle, message",
    [
        ({"rank": 2.9, "degree": 0}, "malformed integer: 2.9"),
        ({"rank": True, "degree": 0}, "malformed integer: True"),
        ({"rank": "2", "degree": 0}, "malformed integer: '2'"),
        ({"rank": 2, "degree": 0.0}, "malformed integer: 0.0"),
        ({"rank": 2, "degree": 0, "hn": [[1, -1], [1.0, 1]]}, "malformed integer: 1.0"),
        # an object or a string unpacks like a pair, one key or character at a time
        ({"rank": 4, "degree": 1, "hn": {"12": 0}}, HN_PAIRS),
        ({"rank": 4, "degree": 1, "hn": ["12"]}, HN_PAIRS),
        ({"rank": 4, "degree": 1, "hn": [[1, -3], [2, 0], "14"]}, HN_PAIRS),
    ],
)
def test_curve_bundle_integers_are_strict(tmp_path, capsys, bundle, message):
    workspace = {
        "base": {"kind": "curve"},
        "bundles": [{"name": "E", **bundle}],
        "space": {"kind": "proj_bundle", "bundle": "E"},
    }
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert (code, out) == (2, f"error: bundles[0]: {message}\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("semistable", "false", "malformed boolean: 'false'"),
        ("semistable", 1, "malformed boolean: 1"),
        ("rank", 4.0, "malformed integer: 4.0"),
    ],
)
def test_surface_bundle_fields_are_strict(tmp_path, capsys, field, value, message):
    record = {"name": "V", "rank": 4, "c1": ["2"], "c2": "9/2", "semistable": True}
    workspace = {
        "base": {"kind": "surface_rho1", "L2": "3"},
        "bundles": [{**record, field: value}],
        "space": {"kind": "proj_bundle", "bundle": "V"},
    }
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert (code, out) == (2, f"error: bundles[0]: {message}\n")
    workspace["bundles"] = [record]
    code, _ = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert code == 0


@pytest.mark.parametrize(
    "k, code, start",
    [
        ("0_2", 2, "error: flag --k needs an integer, got '0_2'"),
        (" +2", 2, "error: flag --k needs an integer"),
        ("\u0662", 2, "error: flag --k needs an integer"),
        ("2.0", 2, "error: flag --k needs an integer"),
        ("", 2, "error: flag --k needs an integer"),
        ("1" * 5000, 2, "error: k out of range: 11111"),
        ("-1", 2, "error: k out of range 1..2\n"),
        ("+2", 0, "codimension: 2\n"),
    ],
    ids=["underscore", "space", "arabic-indic", "decimal", "empty", "5000-digits", "-1", "+2"],
)
def test_k_flag_reads_ascii_digits_only(tmp_path, capsys, k, code, start):
    got, out = run(capsys, ["-w", ws_file(tmp_path, RHO1_WS), "cone", "nef", "--k", k])
    assert got == code and out.startswith(start)


@pytest.mark.parametrize("coords", ["\u0661,0,3", "1_0,0,3", "1,0,3/\u0664"])
def test_member_reads_ascii_rationals_only(capsys, coords):
    path = os.path.join(WORKSPACES, "fibre.json")
    code, out = run(capsys, ["-w", path, "member", coords])
    assert code == 2 and out.startswith("error: malformed rational")


def test_workspace_rationals_are_ascii_only(tmp_path, capsys):
    workspace = copy.deepcopy(RULED_WS)
    workspace["base"]["mu"] = "1_0"
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert (code, out) == (2, "error: base.mu: malformed rational: '1_0'\n")


def test_a_huge_bad_value_is_echoed_briefly(tmp_path, capsys):
    with open(os.path.join(WORKSPACES, "rho1.json")) as handle:
        workspace = json.load(handle)
    workspace["base"]["L2"] = [0] * 200_000
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    assert code == 2 and out.startswith("error: base.L2: malformed rational: [0, 0, ")
    assert len(out.encode()) < 200


LONG = "x" * 100_000
# Python 3.11 and later write an int of at most 4300 digits
BIG = "9" * 4000
WIDE = f"{2**1024 - 1}/{2**1024 - 3}"
# an expression past the parser's length cap is refused before it is read,
# so the longest value a parser message can echo is just under the cap
LONG_NAME = "y" * MAX_EXPRESSION_CHARS
ECHO_SITES = {
    "base kind": (
        {**CURVE_WS, "base": {"kind": LONG}}, ["cone", "nef"], "base.kind: unknown base kind 'xxx"
    ),
    "duplicate bundle": (
        {**CURVE_WS, "bundles": [{"name": LONG, "rank": 2, "degree": 0}] * 2},
        ["cone", "nef"],
        "bundles[1].name: duplicate bundle name 'xxx",
    ),
    "unknown bundle": (
        {**CURVE_WS, "space": {"kind": "proj_bundle", "bundle": LONG}},
        ["cone", "nef"],
        "space.bundle: unknown bundle 'xxx",
    ),
    # within the 1024-bit bound of an integer, far above the rank cap
    "rank above the cap": (
        {**CURVE_WS, "bundles": [{"name": "E", "rank": int("9" * 300), "degree": 0}]},
        ["cone", "nef"],
        "bundles[0].rank: rank 999",
    ),
    # past the integer bound as a rank, and as HN degrees whose slope times a
    # 300-digit coordinate would be too long to print
    "integer rank": (
        {**CURVE_WS, "bundles": [{"name": "E", "rank": int(BIG), "degree": 0}]},
        ["cone", "nef"],
        "bundles[0].rank: integer has 13288 bits",
    ),
    "HN degrees": (
        {
            **FIBRE_WS,
            "bundles": [
                {"name": "E", "rank": 2, "degree": -2 * 10**4200,
                 "hn": [[1, -1 - 10**4200], [1, 1 - 10**4200]]},
                FIBRE_WS["bundles"][1],
            ],
        },
        ["member", "9" * 300 + ",0,0"],
        f"bundles[0].degree: integer has {(2 * 10**4200).bit_length()} bits",
    ),
    # one HN entry alone past the bound: the message names it, not its record
    "HN entry": (
        {
            **FIBRE_WS,
            "bundles": [
                {"name": "E", "rank": 2, "degree": 0, "hn": [[1, -int(BIG)], [1, int(BIG)]]},
                FIBRE_WS["bundles"][1],
            ],
        },
        ["cone", "nef"],
        "bundles[0].hn[0][1]: integer has 13288 bits",
    ),
    "space kind": (
        {**CURVE_WS, "space": {"kind": LONG}},
        ["cone", "nef"],
        "space.kind: unknown space kind 'xxx",
    ),
    "class name": ({**CURVE_WS, "classes": {LONG: "1,0"}}, ["cone", "nef"], "classes['xxx"),
    # an unknown flag before the command, with no workspace and after one
    "leading flag": (None, ["--" + LONG, "cone", "nef"], "unknown flag --xxx"),
    "leading flag after -w": (CURVE_WS, ["--" + LONG, "cone", "nef"], "unknown flag --xxx"),
    "unknown flag": (CURVE_WS, ["cone", "nef", "--" + LONG], "unknown flag --xxx"),
    # this message names an allowed flag only, whatever else argv holds
    "flag value": (CURVE_WS, ["cone", "nef", LONG, "--k"], "flag --k needs a value"),
    "command without workspace": (None, [LONG], "command 'xxx"),
    "unknown command": (CURVE_WS, [LONG], "unknown command 'xxx"),
    "unknown generator": (CURVE_WS, ["ring", "eval", LONG_NAME], "unknown generator 'yyy"),
    "unexpected token": (
        CURVE_WS, ["ring", "eval", "xi " + LONG_NAME[3:]], "unexpected token 'yyy"
    ),
    # a string is the workspace path itself, which no file has
    "workspace path": (LONG, ["cone", "nef"], "workspace: cannot read file 'xxx"),
    # past the rational bound as a string or a JSON int, and as the base form
    "rational text": (
        {**RHO1_WS, "bundles": [{**RHO1_WS["bundles"][0], "c1": [BIG]}]},
        ["cone", "nef"],
        "bundles[0].c1[0]: rational has 13288 bits",
    ),
    "rational int": (
        {**RHO1_WS, "bundles": [{**RHO1_WS["bundles"][0], "c1": [int(BIG)]}]},
        ["cone", "nef"],
        "bundles[0].c1[0]: rational has 13288 bits",
    ),
    "rational c2": (
        {**RHO1_WS, "bundles": [{**RHO1_WS["bundles"][0], "c2": BIG}]},
        ["cone", "nef"],
        "bundles[0].c2: rational has 13288 bits",
    ),
    "base form": (
        {**RHO1_WS, "base": {"kind": "surface_rho1", "L2": BIG}},
        ["cone", "nef"],
        "base.L2: rational has 13288 bits",
    ),
    # the widest c2(End) that rationals within the bound give
    "c2(End)": (
        {
            **RHO1_WS,
            "base": {"kind": "surface_rho1", "L2": WIDE},
            "bundles": [{**RHO1_WS["bundles"][0], "rank": 24, "c1": ["-" + WIDE], "c2": WIDE}],
        },
        ["cone", "nef"],
        "space: invalid preset: 2r*c2 - (r-1)*c1^2 must vanish, got ",
    ),
}


@pytest.mark.parametrize("json_output", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("site", list(ECHO_SITES))
def test_every_exit_2_echo_is_bounded(tmp_path, capsys, site, json_output):
    workspace, command, fragment = ECHO_SITES[site]
    argv = ["--json"] if json_output else []
    if isinstance(workspace, str):
        argv += ["-w", workspace]
    elif workspace is not None:
        argv += ["-w", ws_file(tmp_path, workspace)]
    code, out = run(capsys, argv + command)
    assert code == 2
    assert len(out.encode()) <= 512, out[:200]
    message = json.loads(out)["error"] if json_output else out
    assert fragment in message


FIBRE_FILE = os.path.join(WORKSPACES, "fibre.json")


@pytest.mark.parametrize(
    "argv, want, message",
    [
        ([], 2, "no command given"),
        (["-w"], 2, "flag -w needs a value"),
        (["--json", "-w"], 2, "flag -w needs a value"),
        (["-h"], 0, None),
        (["--help"], 0, None),
        (["--bogus", "cone", "nef"], 2, "unknown flag --bogus"),
        # no prefix of --json or --workspace stands for it
        (["-w", FIBRE_FILE, "--js", "cone", "nef"], 2, "unknown flag --js"),
    ],
    ids=["none", "-w", "--json -w", "-h", "--help", "--bogus", "--js"],
)
def test_argv_is_read_into_an_exit_code(capsys, argv, want, message):
    # main returns the code of every argv, and writes nothing to stderr
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (want, "")
    if message is None:
        assert out == cli.USAGE + "\n" and out.startswith("usage: conecalc ")
    elif "--json" in argv:
        assert json.loads(out)["error"].startswith(message)
    else:
        assert out.startswith(f"error: {message}")


def test_an_empty_workspace_path_is_named(capsys):
    for argv in (["-w", ""], ["--workspace", ""]):
        code, out = run(capsys, argv + ["cone", "nef"])
        assert code == 2
        assert out.startswith("error: workspace: cannot read file '' (")


def test_bundle_rank_cap_is_path_addressed(tmp_path, capsys):
    rank = cli.MAX_RANK
    workspace = copy.deepcopy(RHO1_WS)
    workspace["bundles"][0]["rank"] = rank
    assert run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])[0] == 0
    workspace["bundles"][0]["rank"] = rank + 1
    code, out = run(capsys, ["-w", ws_file(tmp_path, workspace), "cone", "nef"])
    message = f"error: bundles[0].rank: rank {rank + 1} is above the limit of {rank}\n"
    assert (code, out) == (2, message)
    curve = copy.deepcopy(FIBRE_WS)
    curve["bundles"][1]["rank"] = 400
    code, out = run(capsys, ["-w", ws_file(tmp_path, curve), "cone", "nef"])
    assert code == 2 and out.startswith("error: bundles[1].rank: ")


def test_integer_too_long_to_convert_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(CURVE_WS).replace('"rank": 2', '"rank": ' + "1" * 5000))
    code, out = run(capsys, ["-w", str(path), "cone", "nef"])
    # Python 3.11 and later refuse to convert the integer; 3.10 reads it and
    # the integer bound refuses it
    assert code == 2
    assert out.startswith(("error: workspace: not valid JSON", "error: bundles[0].rank: integer has "))


def test_deeply_nested_workspace_is_invalid_json(tmp_path, capsys):
    # nesting past any interpreter's recursion limit, at the top level or
    # inside one field
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(InputError, match=r"^workspace: not valid JSON \("):
        cli.parse_workspace(deep)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(RHO1_WS).replace('"L2": "1"', '"L2": ' + deep))
    code, out = run(capsys, ["-w", str(path), "cone", "nef"])
    assert code == 2 and out.startswith("error: workspace: not valid JSON (")


@pytest.mark.parametrize(
    "name, argv, want",
    [
        ("ruled.json", ["cone", "nef", "--k", "2", "--json"], 0),
        ("curve.json", ["member", "1,-5"], 1),
        ("bad_json.json", ["cone", "psef"], 2),
    ],
)
def test_closed_stdout_keeps_the_exit_code(name, argv, want):
    # the reader closes its end before the call writes: the call still exits
    # with its own code, and prints no traceback and warns about nothing
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    workspace = os.path.join(WORKSPACES, name)
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "conecalc", "-w", workspace, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (want, b"")


def _rank400_workspace(tmp_path):
    workspace = copy.deepcopy(RHO1_WS)
    workspace["bundles"][0]["rank"] = 400
    return ws_file(tmp_path, workspace, "rank400.json")


def _rank24_fibre_workspace(tmp_path):
    workspace = copy.deepcopy(FIBRE_WS)
    workspace["bundles"] = [
        {"name": "E", "rank": 24, "degree": 1},
        {"name": "E2", "rank": 24, "degree": 2},
    ]
    return ws_file(tmp_path, workspace, "fibre24.json")


@pytest.mark.parametrize(
    "workspace, argv, want",
    [
        ("fibre.json", ["ring", "eval", "xi^3000000"], 0),
        ("fibre.json", ["ring", "eval", "(xi+2*zeta)^1000"], 0),
        ("rho1.json", ["ring", "eval", "(lambda+piL)^5000"], 0),
        (None, ["cone", "nef", "--k", "1"], 2),
        ("fibre24", ["ring", "eval", "(xi+zeta+F)^47"], 0),
    ],
)
def test_unbounded_inputs_of_the_past_answer_fast(tmp_path, capsys, workspace, argv, want):
    """Each once took seconds to minutes, or was refused though valid; each
    answers or is refused at once."""
    built = {None: _rank400_workspace, "fibre24": _rank24_fibre_workspace}.get(workspace)
    path = built(tmp_path) if built else os.path.join(WORKSPACES, workspace)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, _ = run(capsys, ["-w", path] + argv)
        times.append(time.perf_counter() - start)
        assert code == want
    assert min(times) < 0.05, times


# --- boundary fuzz ---------------------------------------------------------



def _parseable_workspaces():
    found = []
    for name in sorted(os.listdir(WORKSPACES)):
        with open(os.path.join(WORKSPACES, name)) as handle:
            text = handle.read()
        try:
            found.append(json.loads(text))
        except json.JSONDecodeError:
            continue
    return found


FUZZ_BASES = _parseable_workspaces()
# the long list is a tuple, which JSON writes as a list but no mutation
# below descends into, so the shared value stays as it is
FUZZ_VALUES = (
    (None, True, False, 0, 1, -1, 2, 7, 2.5, "1/2", "110", [], {}, 24, 25, 400, 10**6)
    + ("x" * 100_000, tuple(range(100_000)), BIG)
)
# an exit-2 message is at most this many bytes, whatever the input
MAX_ERROR_BYTES = 512
# a workspace error names one of these paths, once, at its start
WORKSPACE_PATHS = ("workspace", "base", "bundles[", "space", "classes")
FUZZ_COMMANDS = (
    [("cone", "nef"), ("cone", "psef", "--k", "2"), ("member", "1,1,0"), ("zariski", "1,1,0")]
    + [("homog", "--k", str(k)) for k in range(6)]
    + [("ring", "eval", "xi^2")]
)
# one of these runs per example: large exponents, deep nesting, long input
FUZZ_EXPRESSIONS = (
    "xi^3000000",
    "(xi+2*zeta)^1000",
    "(lambda+piL)^5000",
    "(1+xi+zeta+F)^" + "9" * 100,
    "(1+lambda+piEta+piF+F)^" + "9" * 100,
    "xi^" + "9" * 101,
    "xi^" + "9" * 5000,
    "2^" + "9" * 30,
    "(" * 100 + "xi" + ")" * 100,
    "(" * 3000 + "xi" + ")" * 3000,
    " + ".join(["xi"] * 2000),
    " + ".join(["xi"] * 2001),
    "*".join(["(1+lambda)"] * 900),
    "(xi+zeta+F)^4 * (1/2*xi-3*zeta)^2",
)
# per call; the work a call may do is bounded by the caps, not by this
WALL_S = 1.0


def _paths(node, prefix=()):
    """The key path of every value below the root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_workspace_fuzz_exits_cleanly(data):
    """Corrupted workspaces end in exit 0 or 1, or an InputError (exit 2)
    whose message is short. Each command runs in both modes: the two give
    the same exit code or the same refusal, and the text is the command's
    renderer applied to the parsed JSON."""
    workspace = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(0, 2))):
        paths = list(_paths(workspace))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        container = workspace
        for step in parents:
            container = container[step]
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    start = time.perf_counter()
    try:
        spec = cli.parse_workspace(json.dumps(workspace))
    except InputError as err:
        assert len(str(err).encode()) <= MAX_ERROR_BYTES
        assert not str(err).partition(": ")[2].startswith(WORKSPACE_PATHS), str(err)
        return
    finally:
        assert time.perf_counter() - start < WALL_S
    expression = data.draw(st.sampled_from(FUZZ_EXPRESSIONS))
    for command in FUZZ_COMMANDS + [("ring", "eval", expression)]:
        outcomes = []
        for json_output in (False, True):
            start = time.perf_counter()
            try:
                outcomes.append(cli.run_command(spec, list(command), json_output))
            except InputError as err:
                assert len(str(err).encode()) <= MAX_ERROR_BYTES, command[:2]
                outcomes.append(str(err))
            finally:
                assert time.perf_counter() - start < WALL_S, command[:2]
        plain, machine = outcomes
        if isinstance(plain, str) or isinstance(machine, str):
            # a refusal: the same message in both modes
            assert plain == machine, command
            continue
        (code, text), (json_code, out) = plain, machine
        assert code in (0, 1) and json_code == code, command
        render = cli._COMMANDS[command[0]][1]
        assert render(json.loads(out), spec) == text, command
