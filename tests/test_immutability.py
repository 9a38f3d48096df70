"""Value types are frozen and the numeric engine is reentrant."""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from ncdr import maps
from ncdr.algebra import QUATERNIONS, mul
from ncdr.gateaux import gateaux
from ncdr.linmap import StdComponents
from ncdr.verify import run_check

H = QUATERNIONS


def test_value_types_reject_mutation():
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.basis(1).coords = (1, 2, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        StdComponents.identity(H).comps = ()


def test_parallel_evaluation_is_consistent():
    f = maps.square(H)
    x = H.element([1, 2, -1, 3])
    a = H.basis(1)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: gateaux(f, x, a), range(16)))
    assert all(r == results[0] for r in results)


def test_checks_reentrant_across_threads():
    names = ["05-derivative-table", "08-matrix-embedding"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(lambda n: run_check(n, seed=11), names))
    serial = [run_check(n, seed=11) for n in names]
    assert [(r.name, r.passed, r.detail) for r in parallel] == [
        (r.name, r.passed, r.detail) for r in serial
    ]


def test_lazy_coordinates_agree_across_threads():
    # A fresh product has no Fraction view and no hash yet: 8 threads race
    # to build both, and all must read the same values.
    x = H.element([Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4), Fraction(1, 2)])
    y = H.element([Fraction(2, 7), Fraction(1, 3), Fraction(-5, 6), Fraction(3, 2)])
    for _ in range(10):
        z = mul(mul(x, y), y)
        start = threading.Barrier(8, timeout=10)

        def read(_):
            start.wait()
            return z.coords, hash(z)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(8)))
        assert all(r == results[0] for r in results)
        assert results[0] == (mul(mul(x, y), y).coords, hash(results[0][0]))
