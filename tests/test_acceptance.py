"""Acceptance gate: every criterion at its stated tolerance, one line apiece.

Criteria map one-to-one onto the named checks of the shared verify registry
(the same checks `ncdr verify all` runs):

  1  quaternion table axioms + exact norm multiplicativity  -> 01
  2  conversion matrices, round trips, closed forms         -> 02
  3  non-representability and contraction ranks             -> 03
  4  composition in coordinates                             -> 04
  5  derivative table at 1e-8 relative                      -> 05
  6  conjugation differential (1e-10 Jacobian, -1/2 exact)  -> 06
  7  norm-squared derivative at 1e-8                        -> 07
  8  real matrix embedding homomorphism, exact              -> 08
  9  polynomial calculus theorems, exact                    -> 09
  10 chain/product rules 1e-7, mixed partials 1e-6          -> 10
  11 ODE suite (cubic, component-sum, obstruction)          -> 11
  12 exponent: angle identity 1e-12, gaps, 2^n arrangements -> 12
  13 Euler identity at 1e-7                                 -> 13
  14 dual basis and twin associativity, exact               -> 14
  +  negative control: corrupted table must be rejected     -> 15
  +  D-vector-space morphisms: compose, shift, std, exact    -> 16
"""

import pytest

from ncdr.verify import CHECKS, run_check, run_verify_all

SEED = 42


@pytest.mark.parametrize("name", [name for name, _ in CHECKS])
def test_acceptance_criterion(name):
    result = run_check(name, seed=SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_report_is_deterministic_given_seed():
    first = run_verify_all(seed=7)
    second = run_verify_all(seed=7)
    assert [(r.name, r.passed) for r in first.results] == [
        (r.name, r.passed) for r in second.results
    ]
    assert first.all_passed


def test_report_orders_checks_by_name():
    report = run_verify_all(seed=SEED)
    names = [r.name for r in report.results]
    assert names == sorted(names)
    assert len(names) == len(CHECKS)


def test_chain_product_check_draws_invertible_two_sided_maps():
    # Seed 63 once drew a zero b for the b*x*c map, and inverting that zero
    # map failed the check with NotInvertible.
    result = run_check("10-chain-product-mixed", seed=63)
    assert result.passed, result.detail
