"""Command-line front end: exploration subcommands plus batch verification.

Exit codes: 0 success, 1 domain error (error name on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import maps
from .algebra import CANONICAL, AlgebraSpec, _read_json, format_element, mul
from .errors import NcdrError, ParseError
from .gateaux import MapEvaluator, differential_std_components, jacobian
from .linmap import CoordMatrix, StdComponents, big_c, compose_std, coord_to_std, std_to_coord
from .ncpoly import sym_derivative, taylor_poly, word_eval
from .parsing import parse_element, parse_ncpoly, parse_rational, parse_word_poly
from .taylor import OdeRhs, exp, exp_additivity_gap, solve_ode_taylor
from .verify import derivative_table_residuals, run_verify_all


def _algebra(name: str) -> AlgebraSpec:
    try:
        return CANONICAL[name]
    except KeyError:
        raise ParseError(f"unknown algebra {name!r} (expected H or C)") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from None


def _grid_from_spec(alg: AlgebraSpec, spec: str) -> list[list[Fraction]]:
    spec = spec.strip()
    if spec.startswith("@"):
        spec = _read_text(spec[1:]).strip()
    n = alg.dim
    m = re.fullmatch(r"I(\d+)", spec)
    if m:
        if int(m.group(1)) != n:
            raise ParseError(f"identity size {m.group(1)} does not match dim {n}")
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = re.fullmatch(r"diag\((.*)\)", spec)
    if m:
        entries = [parse_rational(s) for s in m.group(1).split(",")]
        if len(entries) != n:
            raise ParseError(f"diag needs {n} entries")
        return [
            [entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)
        ]

    def grid(rows) -> list[list[Fraction]]:
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError("matrix spec must be a JSON list of rows")
        return [[parse_rational(str(v)) for v in row] for row in rows]

    return _read_json(spec, "matrix spec", grid)


def _print_grid(rows, as_json: bool) -> None:
    if as_json:
        print(json.dumps([[str(v) for v in row] for row in rows]))
    else:
        width = max(len(str(v)) for row in rows for v in row)
        for row in rows:
            print("  ".join(str(v).rjust(width) for v in row))


def _evaluator(alg: AlgebraSpec, name: str) -> MapEvaluator:
    if name.startswith("poly:"):
        words = parse_word_poly(alg, name[len("poly:"):], frozenset({"x"}))
        return MapEvaluator.unary(alg, lambda x: word_eval(words, {"x": x}))
    try:
        return maps.BUILTINS[name](alg)
    except KeyError:
        known = ", ".join(sorted(maps.BUILTINS))
        raise ParseError(f"unknown map {name!r} (builtins: {known}; or poly:EXPR)") from None


def _cmd_algebra_show(args) -> int:
    alg = _algebra(args.alg)
    if args.json:
        print(alg.to_json())
        return 0
    print(f"{alg.name}: dimension {alg.dim}, conj signs {alg.conj_signs}")
    for k in range(alg.dim):
        row = []
        for l in range(alg.dim):
            row.append(format_element(mul(alg.basis(k), alg.basis(l))))
        print(f"e{k} * [e0..e{alg.dim - 1}] = " + ", ".join(row))
    return 0


def _cmd_algebra_check(args) -> int:
    if args.file:
        alg = AlgebraSpec.from_json(_read_text(args.file))
    else:
        alg = _algebra(args.alg)
    # Construction validates the unit and associativity axioms.
    print(f"{alg.name}: unit and associativity axioms hold on all {alg.dim ** 3} triples")
    return 0


def _cmd_map_convert(args) -> int:
    alg = _algebra(args.alg)
    grid = _grid_from_spec(alg, args.matrix)
    if args.dir == "std2coord":
        out = std_to_coord(StdComponents.from_rows(alg, grid))
        _print_grid(out.mat, args.json)
    else:
        sol = coord_to_std(CoordMatrix.from_rows(alg, grid))
        _print_grid(sol.components.comps, args.json)
        if not args.json and not sol.unique:
            print("note: representation not unique (minimum-norm solution shown)")
    return 0


def _cmd_map_compose(args) -> int:
    alg = _algebra(args.alg)
    g = StdComponents.from_rows(alg, _grid_from_spec(alg, args.g))
    f = StdComponents.from_rows(alg, _grid_from_spec(alg, args.f))
    _print_grid(compose_std(g, f).comps, args.json)
    return 0


def _cmd_map_bigc(args) -> int:
    alg = _algebra(args.alg)
    bc = big_c(alg)
    if args.json:
        doc = bc.report()
        doc["matrix"] = [[str(v) for v in row] for row in bc.mat]
        print(json.dumps(doc))
        return 0
    _print_grid(bc.mat, False)
    if args.report:
        r = bc.report()
        print(f"rank {r['rank']} of {r['size']}; det {r['det']}; "
              f"zero-map kernel dimension {r['zero_map_kernel_dim']}")
    return 0


def _cmd_diff_table(args) -> int:
    rng = random.Random(args.seed)
    worst = derivative_table_residuals(rng, points=args.points)
    if args.json:
        print(json.dumps({k: v for k, v in sorted(worst.items())}))
        return 0
    for name in sorted(worst):
        print(f"{name:<12} max residual {worst[name]:.3e}")
    return 0


def _cmd_diff_jacobian(args) -> int:
    alg = _algebra(args.alg)
    f = _evaluator(alg, args.map)
    point = parse_element(alg, args.at)
    jac = jacobian(f, point)
    if args.json:
        print(json.dumps([[float(v) for v in row] for row in jac]))
    else:
        for row in jac:
            print("  ".join(f"{float(v): .12g}" for v in row))
    return 0


def _cmd_diff_std_components(args) -> int:
    alg = _algebra(args.alg)
    f = _evaluator(alg, args.map)
    point = parse_element(alg, args.at)
    sol = differential_std_components(f, point)
    _print_grid(sol.components.comps, args.json)
    if not args.json and not sol.unique:
        print("note: representation not unique (minimum-norm solution shown)")
    return 0


def _cmd_poly_taylor(args) -> int:
    alg = _algebra(args.alg)
    poly = parse_ncpoly(alg, args.poly)
    at = parse_element(alg, args.at)
    expansion = taylor_poly(poly, at)
    if args.json:
        print(json.dumps(
            {"base_point": format_element(at),
             "terms": [str(t.to_words("h")) for t in expansion.terms]}
        ))
        return 0
    print(f"about {format_element(at)}, in h = x - ({format_element(at)}):")
    for k, term in enumerate(expansion.terms):
        print(f"  degree {k}: {term.to_words('h')}")
    return 0


def _cmd_poly_derive(args) -> int:
    alg = _algebra(args.alg)
    poly = parse_ncpoly(alg, args.poly)
    d = sym_derivative(poly, args.order)
    if args.json:
        print(json.dumps({"order": args.order, "derivative": str(d)}))
    else:
        print(d)
    return 0


def _cmd_ode_solve(args) -> int:
    alg = _algebra(args.alg)
    rhs = OdeRhs(parse_word_poly(alg, args.rhs))
    x0 = parse_element(alg, args.x0)
    y0 = parse_element(alg, args.y0)
    sol = solve_ode_taylor(rhs, x0, y0)
    if args.json:
        print(json.dumps({"solution": str(sol.solution.to_words("x"))}))
    else:
        print(f"y(x) = {sol.solution.to_words('x')}")
    return 0


def _cmd_exp(args) -> int:
    alg = _algebra(args.alg)
    if args.mode == "gap":
        if args.a is None or args.b is None:
            raise ParseError("exp gap requires --a and --b")
        a = parse_element(alg, args.a)
        b = parse_element(alg, args.b)
        gap = exp_additivity_gap(a, b, args.tol)
        print(json.dumps({"gap": gap}) if args.json else f"gap = {gap:.12e}")
        return 0
    if args.at is None:
        raise ParseError("exp requires --at (or the gap mode)")
    x = parse_element(alg, args.at)
    value = exp(x, args.tol)
    if args.json:
        print(json.dumps({"coords": [float(c) for c in value.coords]}))
    else:
        print(format_element(value))
    return 0


def _cmd_verify_all(args) -> int:
    report = run_verify_all(seed=args.seed)
    print(report.to_json() if args.json else report.format_text())
    return 0 if report.all_passed else 1


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_alg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", default="H", choices=sorted(CANONICAL), help="algebra name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdr", description="calculus over finite-dimensional division algebras"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = sub.add_parser("algebra", help="inspect or validate algebra tables")
    asub = algebra.add_subparsers(dest="sub", required=True)
    show = asub.add_parser("show", help="print the multiplication table")
    _add_alg(show)
    _add_json(show)
    show.set_defaults(handler=_cmd_algebra_show)
    check = asub.add_parser("check", help="re-validate unit and associativity axioms")
    _add_alg(check)
    check.add_argument("--file", help="JSON algebra document to validate instead")
    check.set_defaults(handler=_cmd_algebra_check)

    mp = sub.add_parser("map", help="linear-map representation tools")
    msub = mp.add_subparsers(dest="sub", required=True)
    convert = msub.add_parser("convert", help="convert between representations")
    convert.add_argument("--dir", required=True, choices=["std2coord", "coord2std"])
    convert.add_argument(
        "--matrix", required=True, help="I4, diag(...), inline JSON grid, or @file"
    )
    _add_alg(convert)
    _add_json(convert)
    convert.set_defaults(handler=_cmd_map_convert)
    compose = msub.add_parser("compose", help="compose two standard-component maps")
    compose.add_argument("--g", required=True, help="outer map grid")
    compose.add_argument("--f", required=True, help="inner map grid")
    _add_alg(compose)
    _add_json(compose)
    compose.set_defaults(handler=_cmd_map_compose)
    bigc = msub.add_parser("bigc", help="structure contraction matrix")
    bigc.add_argument("--report", action="store_true", help="print rank/det summary")
    _add_alg(bigc)
    _add_json(bigc)
    bigc.set_defaults(handler=_cmd_map_bigc)

    diff = sub.add_parser("diff", help="numeric differentiation")
    dsub = diff.add_subparsers(dest="sub", required=True)
    table = dsub.add_parser("table", help="closed-form derivative table residuals")
    table.add_argument("--seed", type=int, default=1)
    table.add_argument("--points", type=int, default=100)
    _add_json(table)
    table.set_defaults(handler=_cmd_diff_table)
    jac = dsub.add_parser("jacobian", help="real Jacobian of a map at a point")
    jac.add_argument("--map", required=True, help="builtin name or poly:EXPR")
    jac.add_argument("--at", required=True, help="element literal a+bi+cj+dk")
    _add_alg(jac)
    _add_json(jac)
    jac.set_defaults(handler=_cmd_diff_jacobian)
    stdc = dsub.add_parser("std-components", help="standard components of the differential")
    stdc.add_argument("--map", required=True)
    stdc.add_argument("--at", required=True)
    _add_alg(stdc)
    _add_json(stdc)
    stdc.set_defaults(handler=_cmd_diff_std_components)

    poly = sub.add_parser("poly", help="symbolic polynomial calculus")
    psub = poly.add_subparsers(dest="sub", required=True)
    taylor = psub.add_parser("taylor", help="re-expand about a point")
    taylor.add_argument("--poly", required=True, help="expression in x")
    taylor.add_argument("--at", required=True, help="base point element")
    _add_alg(taylor)
    _add_json(taylor)
    taylor.set_defaults(handler=_cmd_poly_taylor)
    derive = psub.add_parser("derive", help="symbolic derivative of given order")
    derive.add_argument("--poly", required=True)
    derive.add_argument("--order", type=int, default=1)
    _add_alg(derive)
    _add_json(derive)
    derive.set_defaults(handler=_cmd_poly_derive)

    ode = sub.add_parser("ode", help="exact polynomial ODE solving")
    osub = ode.add_subparsers(dest="sub", required=True)
    solve = osub.add_parser("solve", help="solve dy(h) = F(x; h)")
    solve.add_argument("--rhs", required=True, help="expression in x and h")
    solve.add_argument("--x0", required=True)
    solve.add_argument("--y0", required=True)
    _add_alg(solve)
    _add_json(solve)
    solve.set_defaults(handler=_cmd_ode_solve)

    expp = sub.add_parser("exp", help="quaternion exponent (and additivity gap)")
    expp.add_argument("mode", nargs="?", choices=["gap"], default=None)
    expp.add_argument("--at", help="element to exponentiate")
    expp.add_argument("--a", help="first element (gap mode)")
    expp.add_argument("--b", help="second element (gap mode)")
    expp.add_argument("--tol", type=float, default=1e-12)
    _add_alg(expp)
    _add_json(expp)
    expp.set_defaults(handler=_cmd_exp)

    verify = sub.add_parser("verify", help="run the acceptance checks")
    vsub = verify.add_subparsers(dest="sub", required=True)
    vall = vsub.add_parser("all", help="run every check")
    vall.add_argument("--seed", type=int, default=42)
    _add_json(vall)
    vall.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NcdrError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
