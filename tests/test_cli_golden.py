"""The symbolic and numeric commands' output, pinned byte for byte.

`poly taylor`, `poly derive`, `ode solve`, `diff jacobian` and
`diff std-components` over H and C, as text and as JSON, and `map bigc
--report` and `map bigc --json` over H and C: each command's exit code,
stdout and stderr must match cli_golden.json.  The differentials cover
both of std-components' routes: snapped exact components (cube) and the
least-squares floats (inverse), and over C the non-unique note.
`poly taylor --poly "x^3 + i*x - 3" --at 2` keeps its two words
`12*h + (0+1i+0j+0k)*h` apart; merging them would change this file.

Regenerate the file from the current source, after checking that a change of
output is intended, with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from ncdr.cli import main

GOLDEN_FILE = pathlib.Path(__file__).with_name("cli_golden.json")

TAYLOR = {
    "H": (
        ["x^3 + i*x - 3", "(1+j)*x*(2-k)*x*i", "i*x^2*j - 2*x*(1+k)*x + 5",
         "(1/2+j)*x*i*x*k*x*(3-i)"],
        ["2", "1/2-i+3k"],
    ),
    "C": (
        ["x^3 + i*x - 3", "(1+i)*x^2*(2-i) + x", "i*x^3 - (2-i)*x", "(1/3)*x^4 + x*(1+i)*x"],
        ["2", "1/2-3i"],
    ),
}
DERIVE = [("H", "x^3 + i*x - 3"), ("H", "(1+j)*x*(2-k)*x*i*x"), ("C", "(1+i)*x^2*(2-i) + x")]
# The last right-hand side is no derivative of a polynomial: NoSolution.
ODE = [
    ("h*x + x*h", "1+1i", "1-2k"),
    ("i*h*j*x + i*x*j*h", "1/2+k", "2-i"),
    ("3*h*x^2", "0", "0"),
]
DIFF = {"H": ["1/2-i+3k", "1+2i-j+1/3k"], "C": ["2-1/3i"]}


def sweep() -> list[list[str]]:
    def over(alg):
        return [] if alg == "H" else ["--alg", alg]

    commands = []
    for alg, (polys, points) in TAYLOR.items():
        for p in polys:
            for at in points:
                commands.append(["poly", "taylor", *over(alg), "--poly", p, "--at", at])
    for alg, p in DERIVE:
        for order in (1, 2, 3):
            commands.append(["poly", "derive", *over(alg), "--poly", p, "--order", str(order)])
    for rhs, x0, y0 in ODE:
        commands.append(["ode", "solve", "--rhs", rhs, "--x0", x0, "--y0", y0])
    for alg, points in DIFF.items():
        for command in ("jacobian", "std-components"):
            for name in ("cube", "inverse"):
                for at in points:
                    commands.append(["diff", command, *over(alg), "--map", name, "--at", at])
    swept = [argv + tail for argv in commands for tail in ([], ["--json"])]
    return swept + [["map", "bigc", *over(alg), flag] for alg in ("H", "C")
                    for flag in ("--report", "--json")]


def run(argv: list[str]) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else []


def test_the_sweep_is_the_pinned_one():
    assert [g["argv"] for g in GOLDEN] == sweep()
    assert sum(g["code"] == 1 for g in GOLDEN) == 2


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda g: " ".join(g["argv"]))
def test_symbolic_command_output_is_pinned(golden):
    assert run(golden["argv"]) == golden


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps([run(argv) for argv in sweep()], indent=1) + "\n")
    sys.exit(0)
