"""`ncdr verify all --json` check details, pinned at two seeds.

Every check's name, status and detail line (residuals, counts and ranks as
printed) must stay byte-identical; only the timings are left out.
"""

import json

import pytest

from ncdr.cli import main

GOLDEN = {
    42: [
        ("01-algebra-axioms", "64 triples + 1000 norm pairs, exact"),
        ("02-conversion-round-trip", "100 round trips + closed forms, exact"),
        ("03-nonrepresentable-rank", "conjugation rejected; ranks 2 and 16"),
        ("04-composition-coordinates", "100 random pairs, exact"),
        ("05-derivative-table", "max relative residual 2.30e-13 over 7 identities"),
        ("06-conjugation-differential", "Jacobian gap 0.0e+00; components exact; symbolic match"),
        ("07-norm-derivative", "max relative residual 8.02e-13"),
        ("08-matrix-embedding", "100 random pairs, exact"),
        ("09-polynomial-calculus", "50 monomials of degree <= 5, exact"),
        ("10-chain-product-mixed", "rules 1.7e-11; mixed partials 0.0e+00"),
        ("11-ode-suite", "cubic, component-sum and obstruction cases agree"),
        ("12-exponent", "angle residual 2.1e-14; gap(i,j) = 0.799; 2^n counts"),
        ("13-euler-homogeneity", "max relative residual 1.76e-13"),
        ("14-dual-basis-twin", "50 inversions + 100 associativity triples, exact"),
        ("15-negative-control", "corrupted table rejected at construction"),
        ("16-component-maps", "10 compositions, 10 shifts, 10 std conversions, exact"),
    ],
    7: [
        ("01-algebra-axioms", "64 triples + 1000 norm pairs, exact"),
        ("02-conversion-round-trip", "100 round trips + closed forms, exact"),
        ("03-nonrepresentable-rank", "conjugation rejected; ranks 2 and 16"),
        ("04-composition-coordinates", "100 random pairs, exact"),
        ("05-derivative-table", "max relative residual 1.88e-13 over 7 identities"),
        ("06-conjugation-differential", "Jacobian gap 0.0e+00; components exact; symbolic match"),
        ("07-norm-derivative", "max relative residual 7.68e-13"),
        ("08-matrix-embedding", "100 random pairs, exact"),
        ("09-polynomial-calculus", "50 monomials of degree <= 5, exact"),
        ("10-chain-product-mixed", "rules 1.8e-10; mixed partials 0.0e+00"),
        ("11-ode-suite", "cubic, component-sum and obstruction cases agree"),
        ("12-exponent", "angle residual 1.7e-14; gap(i,j) = 0.799; 2^n counts"),
        ("13-euler-homogeneity", "max relative residual 1.78e-13"),
        ("14-dual-basis-twin", "50 inversions + 100 associativity triples, exact"),
        ("15-negative-control", "corrupted table rejected at construction"),
        ("16-component-maps", "10 compositions, 10 shifts, 10 std conversions, exact"),
    ],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_verify_all_json_details_are_pinned(seed, capsys):
    assert main(["verify", "all", "--seed", str(seed), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for check in doc["checks"]:
        assert isinstance(check.pop("elapsed_ms"), float)
    want = [{"name": n, "status": "pass", "detail": d} for n, d in GOLDEN[seed]]
    assert doc == {"seed": seed, "passed": True, "checks": want}
