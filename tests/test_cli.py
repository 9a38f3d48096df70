"""Command-line interface: subcommand outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest
from test_algebra import dense_document

from ncdr import cli
from ncdr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "algebra", "show", "--alg", "H", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "H" and doc["dim"] == 4
    from ncdr.algebra import QUATERNIONS, AlgebraSpec

    assert AlgebraSpec.from_json(out) == QUATERNIONS


def test_algebra_check(capsys):
    code, out, _ = run(capsys, "algebra", "check", "--alg", "C")
    assert code == 0 and "axioms hold" in out


def test_algebra_check_rejects_corrupted_file(tmp_path, capsys):
    from ncdr.algebra import QUATERNIONS

    doc = json.loads(QUATERNIONS.to_json())
    doc["structure"][int("123", 4)] = "2"  # corrupt C[1][2][3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "algebra", "check", "--file", str(bad))
    assert code == 1
    assert err.startswith("AxiomViolated: ")


@pytest.mark.parametrize(
    "signs, error", [([1, 2.7], "ParseError"), ([1, 2], "AxiomViolated"), ([1, 1], "AxiomViolated")]
)
def test_algebra_check_rejects_bad_conj_signs(tmp_path, capsys, signs, error):
    from ncdr.algebra import COMPLEX

    doc = json.loads(COMPLEX.to_json())
    doc["conj_signs"] = signs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "algebra", "check", "--file", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"{error}: ")


def test_algebra_check_refuses_a_tensor_past_the_size_cap(tmp_path, capsys):
    from ncdr.algebra import MAX_STRUCTURE_CONSTANTS

    big = tmp_path / "big.json"
    big.write_text(dense_document(17, MAX_STRUCTURE_CONSTANTS + 1))
    code, out, err = run(capsys, "algebra", "check", "--file", str(big))
    assert (code, out) == (1, "")
    assert err.startswith("RangeError: ")


@pytest.mark.parametrize("text", ["{}", "[1, 2]"])
def test_algebra_check_rejects_malformed_document(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "algebra", "check", "--file", str(bad))
    assert code == 1
    assert err.startswith("ParseError: ")
    assert "Traceback" not in err


def test_map_convert_identity(capsys):
    code, out, _ = run(
        capsys, "map", "convert", "--dir", "coord2std", "--alg", "H",
        "--matrix", "I4", "--json",
    )
    assert code == 0
    grid = json.loads(out)
    assert grid[0][0] == "1"
    assert all(grid[i][j] == "0" for i in range(4) for j in range(4) if (i, j) != (0, 0))


def test_map_convert_reports_nonunique(capsys):
    code, out, _ = run(
        capsys, "map", "convert", "--dir", "coord2std", "--alg", "C", "--matrix", "I2"
    )
    assert code == 0 and "not unique" in out


def test_map_convert_rejects_complex_conjugation(capsys):
    code, _, err = run(
        capsys, "map", "convert", "--dir", "coord2std", "--alg", "C",
        "--matrix", "diag(1,-1)",
    )
    assert code == 1
    assert "NotRepresentable" in err


def test_map_compose(capsys):
    g = json.dumps([["0", "0", "1", "0"], ["0"] * 4, ["0"] * 4, ["0"] * 4])
    f = json.dumps([["0"] * 4, ["1", "0", "0", "0"], ["0"] * 4, ["0"] * 4])
    code, out, _ = run(capsys, "map", "compose", "--alg", "H", "--g", g, "--f", f, "--json")
    assert code == 0
    grid = json.loads(out)
    assert grid[1][2] == "1"


def test_map_bigc_report(capsys):
    code, out, _ = run(capsys, "map", "bigc", "--alg", "C", "--report")
    assert code == 0
    assert "rank 2 of 4" in out


def test_map_convert_from_file(tmp_path, capsys):
    grid = tmp_path / "conj.json"
    grid.write_text(json.dumps([["1", "0", "0", "0"], ["0", "-1", "0", "0"],
                                ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]))
    code, out, _ = run(
        capsys, "map", "convert", "--dir", "coord2std", "--alg", "H",
        "--matrix", f"@{grid}", "--json",
    )
    assert code == 0
    parsed = json.loads(out)
    assert all(parsed[i][i] == "-1/2" for i in range(4))


def test_diff_table_all_small(capsys):
    code, out, _ = run(capsys, "diff", "table", "--seed", "1", "--points", "10", "--json")
    assert code == 0
    residuals = json.loads(out)
    assert len(residuals) == 7
    assert all(v < 1e-8 for v in residuals.values())


def test_diff_jacobian(capsys):
    code, out, _ = run(
        capsys, "diff", "jacobian", "--map", "conj", "--at", "1+2i-1j+0k", "--json"
    )
    assert code == 0
    jac = json.loads(out)
    for i in range(4):
        for j in range(4):
            want = 1.0 if i == j == 0 else (-1.0 if i == j else 0.0)
            assert abs(jac[i][j] - want) < 1e-10


# Pinned bytes of two poly: maps' Jacobians.  The second map's rational scales
# round in the float products, so its bytes change if a scale enters its
# product at another place.
@pytest.mark.parametrize("expr, at, want", [
    ("x^3 + (1+i)*x*j*x - 2", "1+2i-j+k",
     "[[-13.0, -14.0, 8.0, -6.0], [14.0, -9.0, -2.0, -4.0], "
     "[-4.0, 8.0, -1.0, 2.0], [8.0, 0.0, 2.0, -1.0]]\n"),
    ("3*x^2 - 1/3*x*i*x + 5", "1+2i-j+k",
     "[[7.33333333333359, -11.33333333333359, 5.999999999999339, -5.999999999999339], "
     "[11.33333333333282, 7.33333333333359, 0.6666666666671788, -0.6666666666671788], "
     "[-6.0, -0.6666666666664105, 7.33333333333359, 0.0], "
     "[5.999999999999616, 0.6666666666664105, 3.8409910173088844e-13, 7.33333333333359]]\n"),
])
def test_diff_jacobian_poly_map_bytes(capsys, expr, at, want):
    code, out, _ = run(capsys, "diff", "jacobian", "--map", f"poly:{expr}", "--at", at, "--json")
    assert (code, out) == (0, want)


def test_diff_std_components_poly_map(capsys):
    code, out, _ = run(
        capsys, "diff", "std-components", "--map", "poly:i*x*j", "--at", "1", "--json"
    )
    assert code == 0
    grid = json.loads(out)
    assert grid[1][2] == "1"


def test_poly_commands(capsys):
    code, out, _ = run(capsys, "poly", "derive", "--poly", "x^2", "--order", "1")
    assert code == 0 and out == "h1*x + x*h1\n"
    code, out, _ = run(capsys, "poly", "taylor", "--poly", "x^2", "--at", "1+1i", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "base_point": "1+1i+0j+0k",
        "terms": ["(0+2i+0j+0k)", "h*(1+1i+0j+0k) + (1+1i+0j+0k)*h", "h*h"],
    }


# Exact output of the symbolic commands.  Taylor terms print from their
# monomial form, so a scalar stays inside its constant: (0+4i+0j+0k)*h, not
# the equal 4*(0+1i+0j+0k)*h a word polynomial prints.
GOLDEN = [
    (("poly", "taylor", "--poly", "(1+i)*x^2", "--at", "2"),
     "about 2+0i+0j+0k, in h = x - (2+0i+0j+0k):\n"
     "  degree 0: (4+4i+0j+0k)\n"
     "  degree 1: (4+4i+0j+0k)*h\n"
     "  degree 2: (1+1i+0j+0k)*h*h\n"),
    (("poly", "taylor", "--poly", "(1+i)*x^2", "--at", "2", "--json"),
     '{"base_point": "2+0i+0j+0k", "terms": ["(4+4i+0j+0k)", "(4+4i+0j+0k)*h", '
     '"(1+1i+0j+0k)*h*h"]}\n'),
    (("poly", "taylor", "--poly", "i*x*2*x*j", "--at", "3"),
     "about 3+0i+0j+0k, in h = x - (3+0i+0j+0k):\n"
     "  degree 0: (0+0i+0j+18k)\n"
     "  degree 1: (0+12i+0j+0k)*h*(0+0i+1j+0k)\n"
     "  degree 2: (0+2i+0j+0k)*h*h*(0+0i+1j+0k)\n"),
    (("poly", "taylor", "--poly", "i*x*2*x*j", "--at", "3", "--json"),
     '{"base_point": "3+0i+0j+0k", "terms": ["(0+0i+0j+18k)", '
     '"(0+12i+0j+0k)*h*(0+0i+1j+0k)", "(0+2i+0j+0k)*h*h*(0+0i+1j+0k)"]}\n'),
    (("poly", "derive", "--poly", "(1+i)*x^2", "--order", "1"),
     "(1+1i+0j+0k)*h1*x + (1+1i+0j+0k)*x*h1\n"),
    (("poly", "derive", "--poly", "i*x*2*x*j", "--order", "2", "--json"),
     '{"order": 2, "derivative": "(0+2i+0j+0k)*h1*h2*(0+0i+1j+0k) + '
     '(0+2i+0j+0k)*h2*h1*(0+0i+1j+0k)"}\n'),
    (("poly", "derive", "--poly", "x^2", "--order", "1000000000000"), "0\n"),
    (("ode", "solve", "--rhs", "h*x + x*h", "--x0", "1+1i", "--y0", "1-2k"),
     "y(x) = x*x + (1-2i+0j-2k)\n"),
    (("ode", "solve", "--rhs", "h*x + x*h", "--x0", "1+1i", "--y0", "1-2k", "--json"),
     '{"solution": "x*x + (1-2i+0j-2k)"}\n'),
    (("ode", "solve", "--rhs", "i*h*j", "--x0", "0", "--y0", "1"),
     "y(x) = (0+1i+0j+0k)*x*(0+0i+1j+0k) + (1+0i+0j+0k)\n"),
    (("ode", "solve", "--alg", "C", "--rhs", "5*h*x^4", "--x0", "0", "--y0", "0"),
     "y(x) = x*x*x*x*x\n"),
    # d(x^9)(h), written out as its nine words.
    (("ode", "solve", "--rhs", " + ".join("x*" * q + "h" + "*x" * (8 - q) for q in range(9)),
      "--x0", "0", "--y0", "0"),
     "y(x) = x*x*x*x*x*x*x*x*x\n"),
]


@pytest.mark.parametrize("argv, want", GOLDEN)
def test_symbolic_output_is_pinned(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "")


def test_ode_solve(capsys):
    code, out, _ = run(
        capsys, "ode", "solve", "--rhs", "h*x^2 + x*h*x + x^2*h", "--x0", "0", "--y0", "0"
    )
    assert code == 0
    assert out.strip() == "y(x) = x*x*x"
    code, _, err = run(capsys, "ode", "solve", "--rhs", "3*h*x^2", "--x0", "0", "--y0", "0")
    assert code == 1 and "NoSolution" in err


def test_exp_and_gap(capsys):
    code, out, _ = run(capsys, "exp", "--at", "0+1i+0j+0k", "--tol", "1e-12", "--json")
    assert code == 0
    coords = json.loads(out)["coords"]
    assert abs(coords[0] - math.cos(1.0)) < 1e-12
    assert abs(coords[1] - math.sin(1.0)) < 1e-12
    code, out, _ = run(capsys, "exp", "gap", "--a", "0+1i", "--b", "0+0i+1j", "--json")
    assert code == 0
    assert json.loads(out)["gap"] > 0.01
    code, _, err = run(capsys, "exp", "gap", "--a", "0+1i")
    assert code == 1 and "ParseError" in err


def test_verify_all_json_and_determinism(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    pattern = [(c["name"], c["status"]) for c in doc["checks"]]
    code2, out2, _ = run(capsys, "verify", "all", "--seed", "7", "--json")
    pattern2 = [(c["name"], c["status"]) for c in json.loads(out2)["checks"]]
    assert pattern == pattern2


NO_NUMPY_SCRIPT = """
import sys
import ncdr
from ncdr import cli
seen = ["numpy" in sys.modules]
cli.main(["verify", "all", "--seed", "42"])
seen.append("numpy" in sys.modules)
cli.main(["diff", "jacobian", "--map", "inverse", "--at", "1+2i-j+1/3k"])
seen.append("numpy" in sys.modules)
print(*seen, file=sys.stderr)
"""


def test_library_and_cli_import_no_numpy():
    # numpy is a test dependency only: a fresh import, verify all and a
    # numeric command all run without it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["False", "False", "False"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "convert", "--dir", "sideways", "--matrix", "I4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["1e-3", "abc", "nan", "-1"])
def test_tolerance_env_is_ignored(capsys, monkeypatch, value):
    # The engine's tolerance is a constant: no environment variable moves it.
    argv = ("diff", "table", "--seed", "3", "--points", "5", "--json")
    monkeypatch.delenv("NCDR_TOL", raising=False)
    want = run(capsys, *argv)
    monkeypatch.setenv("NCDR_TOL", value)
    assert run(capsys, *argv) == want == (0, want[1], "")


@pytest.mark.parametrize("argv", [
    ("exp", "--at", "800", "--json"),
    ("exp", "--at", "0+1i", "--tol", "nan"),
    ("exp", "--at", "0+1i", "--tol", "-1"),
])
def test_exp_domain_errors_exit_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("RangeError:")


@pytest.mark.parametrize("argv, error", [
    (("poly", "derive", "--poly", "x^9", "--order", "9"), "DegreeTooLarge"),
    (("poly", "taylor", "--poly", "x^13", "--at", "1"), "DegreeTooLarge"),
    (("poly", "taylor", "--poly", "x^33", "--at", "1"), "ParseError"),
    (("poly", "taylor", "--poly", "(x+i+j)^20", "--at", "1"), "DegreeTooLarge"),
])
def test_size_guards_exit_cleanly(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{error}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["jacobian", "std-components"])
def test_non_finite_derivatives_exit_cleanly(capsys, command):
    # cube overflows to infinity near 1e110; the extrapolants turn NaN.
    code, out, err = run(capsys, "diff", command, "--alg", "H", "--map", "cube",
                         "--at", "1" + "0" * 110)
    assert code == 1 and out == ""
    assert err.startswith("NonConvergent:")
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", [
    ("map", "convert", "--dir", "std2coord", "--matrix", "5"),
    ("map", "convert", "--dir", "std2coord", "--matrix", "[5]"),
    ("map", "convert", "--dir", "coord2std", "--matrix", '{"a": [1]}'),
    ("map", "compose", "--g", "5", "--f", "I4"),
])
def test_matrix_spec_must_be_a_list_of_rows(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ParseError: matrix spec must be a JSON list of rows")


@pytest.mark.parametrize("points", ["0", "-5"])
def test_diff_table_needs_a_point(capsys, points):
    code, out, err = run(capsys, "diff", "table", "--points", points)
    assert code == 1 and out == ""
    assert err.startswith("RangeError: ")


def _corrupted_algebra(tmp_path):
    from ncdr.algebra import QUATERNIONS

    doc = json.loads(QUATERNIONS.to_json())
    doc["structure"][int("123", 4)] = "2"  # corrupt C[1][2][3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


@pytest.mark.parametrize("argv, error", [
    (("poly", "derive", "--poly", "x^3", "--order", "0"), "RangeError"),
    (("algebra", "check", "--file", "{missing}"), "ParseError"),
    (("map", "convert", "--dir", "std2coord", "--matrix", "@{missing}"), "ParseError"),
    (("map", "convert", "--dir", "std2coord", "--matrix", "[[1,2]]"), "DimensionMismatch"),
    (("map", "convert", "--dir", "coord2std", "--matrix", "[[1,2]]"), "DimensionMismatch"),
    (("ode", "solve", "--rhs", "x", "--x0", "0", "--y0", "0"), "ParseError"),
    (("algebra", "check", "--file", "{corrupted}"), "AxiomViolated"),
    (("diff", "jacobian", "--map", "inverse", "--at", "0"), "NotInvertible"),
])
def test_failures_are_typed(tmp_path, capsys, argv, error):
    paths = {"missing": tmp_path / "missing.json", "corrupted": _corrupted_algebra(tmp_path)}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ")
    assert "Traceback" not in err


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


@pytest.mark.parametrize("argv", [
    ("poly", "derive", f"--poly={_nested(300)}"),
    ("poly", "derive", "--poly=" + "-" * 3000 + "x"),
    ("poly", "taylor", f"--poly={_nested(300)}", "--at", "1"),
    ("diff", "jacobian", f"--map=poly:{_nested(300)}", "--at", "1"),
    ("ode", "solve", "--rhs=h*" + _nested(300), "--x0", "0", "--y0", "0"),
    ("algebra", "check", "--file", "{deep}"),
    ("map", "convert", "--dir", "std2coord", "--matrix", "@{deep}"),
])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(a.format(deep=deep) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("ParseError: ")
    assert "Traceback" not in err


def test_main_catches_only_ncdr_errors(monkeypatch):
    # Anything else is a defect and must surface, not pass as a domain error.
    def broken(**kwargs):
        raise ValueError("defect")

    monkeypatch.setattr(cli, "run_verify_all", broken)
    with pytest.raises(ValueError, match="defect"):
        main(["verify", "all"])
