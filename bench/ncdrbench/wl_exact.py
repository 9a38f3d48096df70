"""exact-kernel: the exact rational layers only (algebra, exactla, linmap, dspace).

Why: an exact-scalar rewrite shows here.  Fresh-algebra ops are the slowest
op type and miss the big_c cache, so latency_p50_ms reads the cached path and
latency_tail_ms the cache-miss path; a gain on one that costs the other shows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ncdr import algebra, closed_forms, dspace, linmap
from ncdr.errors import Singular

from . import draws
from .harness import Case, OpType, Workload

H = algebra.QUATERNIONS
C = algebra.COMPLEX

# Held before any tracing is installed: the cache handle, not a traced wrapper.
_BIG_C = linmap.big_c

IDENTITY_BATCH = 4


def _identities(rng: random.Random, _variant) -> Case:
    triples = [
        (draws.nonzero_element(rng, H), draws.element(rng, H), draws.element(rng, H))
        for _ in range(IDENTITY_BATCH)
    ]

    def run():
        out = []
        for x, y, z in triples:
            xy = algebra.mul(x, y)
            out.append((
                algebra.mul(xy, z),
                algebra.mul(x, algebra.mul(y, z)),
                algebra.norm_sq(xy),
                algebra.norm_sq(x) * algebra.norm_sq(y),
                algebra.mul(x, algebra.inverse(x)),
            ))
        return out

    def check(out, exc):
        if exc is not None:
            return False, None
        one = H.one
        return all(a == b and n1 == n2 and inv == one for a, b, n1, n2, inv in out), None

    return Case(run, check, {"alg": "H"})


def _c_min_norm(comps) -> bool:
    # The zero maps of C are spanned by [[1,0],[0,1]] and [[0,1],[-1,0]];
    # the minimum-norm representative is orthogonal to both.
    return comps[0][0] + comps[1][1] == 0 and comps[0][1] - comps[1][0] == 0


def _conversion(rng: random.Random, variant) -> Case:
    alg_name, kind = variant
    alg = H if alg_name == "H" else C
    f = draws.std_components(rng, alg)
    g = draws.std_components(rng, alg)

    if kind == "round-trip":
        def run():
            m = linmap.std_to_coord(f)
            return m, linmap.coord_to_std(m)

        def check(out, exc):
            if exc is not None:
                return False, None
            m, sol = out
            if alg is H:
                return (
                    m.mat == closed_forms.h_std_to_coord(f.comps)
                    and sol.unique
                    and sol.components == f
                ), None
            back = linmap.std_to_coord(sol.components)
            return (
                m.mat == closed_forms.c_std_to_coord(f.comps)
                and not sol.unique
                and back == m
                and _c_min_norm(sol.components.comps)
            ), None
    else:
        def run():
            lhs = linmap.std_to_coord(linmap.compose_std(g, f))
            return lhs, linmap.std_to_coord(g) @ linmap.std_to_coord(f)

        def check(out, exc):
            return exc is None and out[0] == out[1], None

    return Case(run, check, {"alg": alg_name, "kind": kind})


def _hamilton(p, q):
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _h_inverse(p):
    n = sum(c * c for c in p)
    return (p[0] / n, -p[1] / n, -p[2] / n, -p[3] / n)


def _singular_2x2(a, b, c, d) -> bool:
    """Independent oracle: [[a, b], [c, d]] over H is singular iff its Schur
    complement d - c a^-1 b vanishes (a != 0), or b or c is zero (a == 0)."""
    if any(a):
        schur = tuple(x - y for x, y in zip(d, _hamilton(_hamilton(c, _h_inverse(a)), b)))
        return not any(schur)
    return not any(b) or not any(c)


def _dmatrix_inverse(rng: random.Random, _variant) -> Case:
    A = dspace.DMatrix(tuple(tuple(draws.element(rng, H) for _ in range(2)) for _ in range(2)))
    eye = dspace.DMatrix.identity(H, 2)

    def run():
        B = dspace.dmatrix_inverse(A)
        return B @ A, A @ B

    def check(out, exc):
        singular = _singular_2x2(*(e.coords for row in A.entries for e in row))
        if isinstance(exc, Singular):
            return singular, None
        return exc is None and not singular and out[0] == eye and out[1] == eye, None

    return Case(run, check, {"alg": "H"})


def _parameter(rng: random.Random) -> Fraction:
    """A nonzero rational other than +-1; positive values give split algebras."""
    while True:
        v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 3))
        if abs(v) != 1:
            return v


def _clear_big_c() -> None:
    # Each fresh algebra would otherwise stay in big_c's unbounded cache, so
    # memory would grow with throughput; the canonical entries are refilled
    # here, outside the timed op.
    _BIG_C.cache_clear()
    _BIG_C(H)
    _BIG_C(C)


def _fresh_algebra(rng: random.Random, _variant) -> Case:
    a, b = _parameter(rng), _parameter(rng)
    comps = [[draws.rational(rng) for _ in range(4)] for _ in range(4)]

    def run():
        E = algebra.make_quaternion_algebra(a, b)
        bc = linmap.big_c(E)
        f = linmap.StdComponents.from_rows(E, comps)
        m = linmap.std_to_coord(f)
        return E, bc, f, m, linmap.coord_to_std(m)

    def check(out, exc):
        if exc is not None:
            return False, None
        E, bc, f, m, sol = out
        # Coordinates read off the definition x -> sum f^{ij} e_i x e_j.
        direct = all(
            m.apply(E.basis(i)) == linmap.eval_std(f, E.basis(i)) for i in range(4)
        )
        return bc.rank == 16 and direct and sol.unique and sol.components == f, None

    split = a > 0 or b > 0
    return Case(run, check, {"split": split}, cleanup=_clear_big_c)


WORKLOAD = Workload(
    name="exact-kernel",
    ops=(
        OpType("h-identities", _identities, (None,) * 12),
        OpType(
            "conversion",
            _conversion,
            (("H", "round-trip"),) * 4 + (("H", "compose"),) * 3
            + (("C", "round-trip"),) * 3 + (("C", "compose"),) * 2,
        ),
        OpType("dmatrix-inverse", _dmatrix_inverse, (None,) * 8),
        # One slot in 33 (3%): p99 then falls inside the fresh-algebra mode,
        # near its 67th percentile, instead of at the edge of its noise tail.
        OpType("fresh-algebra", _fresh_algebra, (None,) * 1),
    ),
)
