"""Value types are frozen, the cached big_c holds nothing mutable, word
factors are interned and the numeric engine is reentrant."""

import copy
import dataclasses
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from ncdr import maps
from ncdr.algebra import COMPLEX, QUATERNIONS, mul
from ncdr.gateaux import gateaux
from ncdr.linmap import StdComponents, big_c
from ncdr.ncpoly import Const, Var
from ncdr.verify import run_check

H = QUATERNIONS


def test_value_types_reject_mutation():
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.basis(1).coords = (1, 2, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        StdComponents.identity(H).comps = ()


def _mutable_parts(value, path):
    """Paths to every list, dict or set inside value's fields, at any depth."""
    if isinstance(value, (list, dict, set)):
        yield path
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _mutable_parts(v, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _mutable_parts(getattr(value, f.name), f"{path}.{f.name}")


@pytest.mark.parametrize("alg", [H, COMPLEX], ids=["H", "C"])
def test_cached_big_c_holds_nothing_mutable(alg):
    # big_c is cached and public: a mutable row would change every later
    # conversion in the process.
    assert list(_mutable_parts(big_c(alg), "big_c")) == []


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
    # A fresh product has no Fraction view yet: 8 threads race to build it
    # and hash it, and all must read the same values.
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


def test_equal_factors_are_one_object():
    a = H.element([Fraction(1, 2), 3, Fraction(-4, 6), 0])
    b = H.element([Fraction(2, 4), Fraction(6, 2), Fraction(-2, 3), Fraction(0)])
    assert a is not b and Const(a) is Const(b)
    assert Const(mul(a, H.basis(1)) - mul(b, H.basis(1)) + a) is Const(a)
    assert Var("x") is Var("x") and Var("x") is not Var("h")
    assert Const(H.basis(1)) is not Const(H.basis(2))


def test_float_constants_are_kept_apart_from_exact_ones():
    exact = Const(H.scalar(2) + H.basis(1))
    floaty = Const(H.element([2.0, 1.0, 0.0, 0.0]))
    assert floaty is not exact and floaty != exact
    assert floaty.value._ints is None and exact.value._ints is not None
    assert Const(H.element([2.0, 1.0, 0.0, 0.0])) is floaty


def test_factors_built_from_threads_are_one_object():
    # Two objects for one value would break identity equality; a short
    # switch interval makes the threads interleave inside the miss path.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            start = threading.Barrier(8, timeout=10)
            coords = [Fraction(round_, 7), 1, Fraction(-3, 11), round_]

            def build(_):
                value = H.element(coords)  # a fresh element in every thread
                start.wait()
                return Const(value), Var(f"t{round_}")

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(build, range(8)))
            assert len({id(c) for c, _ in results}) == 1
            assert len({id(v) for _, v in results}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_copies_and_pickles_return_the_interned_factor():
    c, v = Const(H.element([1, Fraction(-2, 3), 0, 5])), Var("x")
    for f in (c, v):
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f
        assert copy.copy(f) is f
    word = (c, v, c)
    assert pickle.loads(pickle.dumps(word)) == word
    assert repr(v) == "Var(name='x')"
    assert repr(c) == f"Const(value={c.value!r})"


def test_factors_reject_mutation():
    c, v = Const(H.basis(1)), Var("x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.value = H.basis(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.name = "h"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.name
    assert c.value == H.basis(1) and v.name == "x"


def test_intern_tables_empty_once_the_work_is_dropped():
    # A fresh interpreter, so no other test holds factors alive.
    script = """
import gc
from ncdr import ncpoly
from ncdr.algebra import QUATERNIONS as H
from ncdr.parsing import parse_word_poly
p = parse_word_poly(H, "(1 + 2*i)*x*j*x + 3*x^2*k - 1/2")
q = ncpoly.taylor_poly(ncpoly.ncpoly_from_words(p), H.element([1, 2, -1, 3]))
d = ncpoly.sym_derivative(q.reconstruct(), 2)
assert ncpoly.extensional_equal(ncpoly.diagonal(d, 2), ncpoly.diagonal(d, 2).rename({"h": "h"}))
assert len(ncpoly._VARS) and len(ncpoly._CONSTS)
del p, q, d
gc.collect()
print(len(ncpoly._VARS), len(ncpoly._CONSTS))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]
