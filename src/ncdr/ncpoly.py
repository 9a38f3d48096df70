"""Exact symbolic calculus for noncommutative polynomials in one variable.

A polynomial is a sum of monomials a_0 x a_1 x ... x a_k with constant
two-sided factors.  WordPoly is the one polynomial algebra: sums, products,
powers, substitution and derivatives all run on its canonical words.  NCPoly
is only the monomial-form record that taylor_poly, sym_derivative and
eval_poly take and that Taylor terms and parsed polynomials come back as;
to_words and ncpoly_from_words convert between the two.

Derivatives of every order come from polarization: the order-m derivative
replaces m of the x-slots by fresh symbols h_1..h_m in all ordered ways,
which keeps the structural identities (vanishing above the degree, n! on the
diagonal, permutation symmetry) exact by construction.

Taylor terms need only the diagonal of those derivatives, where the
polarization holds each choice of k slots k! times: term k is the part of
p(h + y0) of degree k in h.  taylor_poly therefore substitutes x = h + y0 and
sorts the words by their count of h, C(n, k) words for term k of a degree-n
monomial, not n!/(n-k)!.  WordPoly.substitute walks the slot fillings of all
words at once and merges equal partial fillings before expanding them, so
TaylorExpansion.reconstruct, which substitutes h = x - y0 into all its terms
together, cancels its 3^n fillings where they meet instead of at the end.

Formal words mixing constants and variables live in WordPoly.  Their
factors are interned: Var(name) and Const(value) return the one live object
for a name or an exact value (float constants are kept apart), so words hash
and compare by the identity of their factors, and rename and derivative
replace factors by identity.  Their formal canonical form (fused constants,
folded central scalars, sorted terms) is a fast pre-check only; equality of
word polynomials is extensional, decided exactly by evaluating each
homogeneous part of the difference on principal lattices of its symbols'
degrees, the basis for degree 1, with one stack of prefix products per
lattice point.  Constants are fused once, as a word is built or filled in,
each run held pending as one product and interned only when a variable
follows or the word ends.  Sums, rename, derivative and scaling by a
rational combine words that are already canonical or change their variable
names or scalars, so they merge equal words and sort without a second fusion
pass; two or more terms that are a single constant are summed into one.  A
rename that permutes names returns a polynomial it maps onto itself as it is.
sym_derivative and taylor_poly raise DegreeTooLarge beyond
MAX_DERIVATIVE_WORDS and MAX_TAYLOR_WORDS, a product of word polynomials
beyond MAX_PRODUCT_WORDS, and extensional_equal beyond _MAX_EVAL_PRODUCTS
products.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Union

from .algebra import AlgebraSpec, Element, _exact, mul
from .errors import (
    AlgebraMismatch,
    DegreeTooLarge,
    DimensionMismatch,
    ParseError,
    RangeError,
    UnboundSymbol,
)

# Size guards, in words built.  Each limit admits about a second of work in
# H: a generic degree-7 monomial differentiated to order 7 builds 5,040
# words, and a degree-12 monomial's Taylor terms hold 4,096.
#: Most words sym_derivative builds: the sum over monomials of n!/(n-k)!.
MAX_DERIVATIVE_WORDS = 20_000
#: Most words taylor_poly builds over all its terms: the sum of 2^n.
MAX_TAYLOR_WORDS = 2**12
#: Most words a product of word polynomials builds: the product of their term
#: counts.  A power of a sum reaches it first: (x+i+j)^17 in H builds 8,360.
MAX_PRODUCT_WORDS = 10_000
# Most products extensional_equal multiplies, summed over its lattice points:
# (conj x)^5 against conj(x^5) in H takes 176,456 in about a second.
_MAX_EVAL_PRODUCTS = 200_000

# The live factors, one object per value; a lock makes the miss path atomic.
_VARS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_CONSTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
_setattr = object.__setattr__


def _intern(cls: type, table: weakref.WeakValueDictionary, key: object, value: object):
    """The miss path: the live object for key, made under the lock if none is."""
    with _INTERN_LOCK:
        obj = table.get(key)
        if obj is None:
            obj = object.__new__(cls)
            _setattr(obj, cls._field, value)
            table[key] = obj
    return obj


class _Factor:
    """A frozen, interned factor: equal values are one object, so factors
    hash and compare by identity, and copies and unpickling re-intern.
    _key sorts canonical words, variables by name and then constants by
    coordinates, an exact one before its float twin, so words that differ only
    there keep one order whichever walk made them; it is filled on first read,
    as a factor may never be sorted."""

    __slots__ = ()
    _field: str

    def __getattr__(self, name: str) -> tuple:
        if name != "_key":
            raise AttributeError(name)
        key = self._make_key()
        _setattr(self, "_key", key)
        return key

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), (getattr(self, self._field),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={getattr(self, self._field)!r})"


class Var(_Factor):
    """A variable of word polynomials, one object per name."""

    __slots__ = ("name", "_key", "__weakref__")
    _field = "name"

    def __new__(cls, name: str) -> "Var":
        return _VARS.get(name) or _intern(cls, _VARS, name, name)

    def _make_key(self) -> tuple:
        return (0, self.name)


class Const(_Factor):
    """A constant factor, one object per exact value or per float value."""

    __slots__ = ("value", "_key", "__weakref__")
    _field = "value"

    def __new__(cls, value: Element) -> "Const":
        # Float constants are keyed apart, so one never stands for an exact one.
        ints = value._ints
        key = (value._alg, ints) if ints is not None else (value._alg, None, value.coords)
        return _CONSTS.get(key) or _intern(cls, _CONSTS, key, value)

    def _make_key(self) -> tuple:
        return (1, self.value.coords, self.value._ints is None)


Factor = Union[Var, Const]
Word = tuple[Factor, ...]
Term = tuple[Fraction, Word]
_factor_key = attrgetter("_key")


def _is_central_scalar(e: Element) -> bool:
    # Float elements stay constants: a term's scale is a Fraction.
    return e._ints is not None and not any(e._ints[0][1:])


def _collect(raw: Iterable[Term], sum_in: AlgebraSpec | None = None) -> tuple[Term, ...]:
    """Merge equal words and sort; every word must already be canonical.

    Two or more terms that are a single constant, or any number given sum_in,
    become the one term of their sum, fused like any constant (rounded once at
    the end if a float is among them, so in any order); a lone one keeps its scale.
    """
    collected: dict[Word, Fraction] = {}
    consts: list[Term] = []
    for coeff, word in raw:
        if len(word) == 1 and isinstance(word[0], Const):
            consts.append((coeff, word))
            continue
        # setdefault hashes the word once where it is new.
        size = len(collected)
        prev = collected.setdefault(word, coeff)
        if len(collected) == size:
            collected[word] = prev + coeff
    if len(consts) > 1 or sum_in:
        alg = sum_in or consts[0][1][0].value.alg
        if all(w[0].value._ints is not None for _, w in consts):
            total = sum((w[0].value * c for c, w in consts), alg.zero)
        else:  # exactly, but an infinite or NaN float has no exact value and stays one
            cols = zip(*[[Fraction(a) * c if math.isfinite(a) else a * c for a in w[0].value.coords]
                         for c, w in consts])
            total = Element(alg, [float(sum(col)) for col in cols])
        consts = WordPoly.constant(total).terms
    collected.update((w, c) for c, w in consts)
    terms = [(c, w) for w, c in collected.items() if c]
    terms.sort(key=lambda t: tuple(map(_factor_key, t[1])))
    return tuple(terms)


# A walk's state: the canonical prefix, the constant pending after it (its
# interned factor, an element once fused, or None) and the scale.
State = tuple[Word, Union[Const, Element, None], Fraction]


def _extend(state: State, word: Iterable[Factor]) -> State | None:
    """The canonical fusion of state followed by word; None if it vanished.

    Central scalars fold into the scale, and a constant fuses with the one
    pending, which enters the prefix when a variable follows (or in _word,
    when the word ends).  Only a float constant reaches the zero test: an
    exact zero is a central scalar and vanishes through the scale.
    """
    out, pending, scale = state
    for f in word:
        if f.__class__ is Var:
            out = _word(out, pending) + (f,)
            pending = None
            continue
        v = f.value
        central = _is_central_scalar(v)
        if not central and pending is not None:
            v = mul(pending.value if pending.__class__ is Const else pending, v)
            pending = None
            central = _is_central_scalar(v)
        if central:
            num, den = v._ints
            if num[0] != den:  # the unit leaves scale as it is
                scale = Fraction(scale.numerator * num[0], scale.denominator * den)
                if not scale:
                    return None
        elif v.is_zero():
            return None
        else:
            # Unfused, f is already the interned factor of v.
            pending = f if v is f.value else v
    return out, pending, scale


def _word(out: Word, pending: Const | Element | None) -> Word:
    """out followed by the pending constant, interned here."""
    if pending is None:
        return out
    return out + (pending if pending.__class__ is Const else Const(pending),)


def _ends_constant(state: State, rest: int | None, rests: list) -> bool:
    """Whether a filling of rest ends state, all constants so far, as a nonzero constant."""
    if rest is None:
        return True
    steps, nxt = rests[rest]
    ends = (_extend(state, w) for c, w in steps if not any(f.__class__ is Var for f in w))
    return any(e is not None and _ends_constant(e, nxt, rests) for e in ends)


def _canonical(alg: AlgebraSpec, raw: Iterable[Term]) -> tuple[Term, ...]:
    fused: list[Term] = []
    for coeff, word in raw:
        if not coeff:
            continue
        coeff = coeff if coeff.__class__ is Fraction else Fraction(coeff)  # ints from build
        state = _extend(((), None, coeff), word)
        if state is not None:
            out, pending, scale = state
            fused.append((scale, _word(out, pending) or (Const(alg.one),)))
    return _collect(fused)


@dataclass(frozen=True)
class WordPoly:
    """Formal sum of scalar-weighted words of constants and variables."""

    alg: AlgebraSpec
    terms: tuple[Term, ...]

    @classmethod
    def build(cls, alg: AlgebraSpec, raw: Iterable[Term]) -> "WordPoly":
        return cls(alg, _canonical(alg, raw))

    @classmethod
    def zero(cls, alg: AlgebraSpec) -> "WordPoly":
        return cls(alg, ())

    @classmethod
    def constant(cls, value: Element) -> "WordPoly":
        return cls.build(value.alg, [(Fraction(1), (Const(value),))])

    @classmethod
    def variable(cls, alg: AlgebraSpec, name: str) -> "WordPoly":
        return cls.build(alg, [(Fraction(1), (Var(name),))])

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        return {f.name for _, w in self.terms for f in w if isinstance(f, Var)}

    def _check_same(self, other: "WordPoly") -> None:
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraMismatch("word polynomials over different algebras")

    def __add__(self, other: "WordPoly") -> "WordPoly":
        # Both operands are canonical, so their words only need merging.
        self._check_same(other)
        return WordPoly(self.alg, _collect(self.terms + other.terms))

    def __sub__(self, other: "WordPoly") -> "WordPoly":
        return self + (-other)

    def __neg__(self) -> "WordPoly":
        return WordPoly(self.alg, tuple((-c, w) for c, w in self.terms))

    def __mul__(self, other: object) -> "WordPoly":
        if isinstance(other, WordPoly):
            self._check_same(other)
            words = len(self.terms) * len(other.terms)
            if words > MAX_PRODUCT_WORDS:
                raise DegreeTooLarge(
                    f"product would build {words} words (limit {MAX_PRODUCT_WORDS})"
                )
            raw = [
                (c1 * c2, w1 + w2)
                for c1, w1 in self.terms
                for c2, w2 in other.terms
            ]
            return WordPoly.build(self.alg, raw)
        if isinstance(other, (int, Fraction)):
            # Scaling keeps the words canonical, distinct and in order.
            q = Fraction(other)
            if not q:
                return WordPoly.zero(self.alg)
            return WordPoly(self.alg, tuple((q * c, w) for c, w in self.terms))
        return NotImplemented

    def __rmul__(self, other: object) -> "WordPoly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "WordPoly":
        """Repeated product; every step is held to MAX_PRODUCT_WORDS."""
        if k < 0:
            raise RangeError("negative powers are not polynomials")
        acc = WordPoly.constant(self.alg.one)
        for _ in range(k):
            acc = acc * self
        return acc

    def rename(self, mapping: Mapping[str, str]) -> "WordPoly":
        # Renaming leaves every word canonical, so equal words only need
        # merging, not the constant fusion of build.  A permutation of names
        # that maps the polynomial onto itself, as a swap of two symbols does
        # to a symmetric form, returns it as it is.
        new = {Var(old): Var(name) for old, name in mapping.items()}
        raw = [(c, tuple(map(new.get, w, w))) for c, w in self.terms]
        if set(mapping.values()) == mapping.keys():
            coeffs = {w: c for c, w in self.terms}
            if all(coeffs.get(w) == c for c, w in raw):
                return self
        return WordPoly(self.alg, _collect(raw))

    def substitute(self, name: str, replacement: "WordPoly") -> "WordPoly":
        """Replace every occurrence of the variable and expand products.

        The fillings of all words are walked at once, level by level in the
        slots left.  Equal states (prefix, pending constant by exact value,
        rest of the word) from any words merge and sum their scales before
        they expand, and one that sums to zero is dropped, so fillings that
        cancel die where they meet.  _collect keeps a lone word of constants
        only but sums two or more, so the walk counts the fillings reaching one.
        """
        self._check_same(replacement)
        x = Var(name)
        if not replacement.terms:
            # Only the words without x survive, and they stay canonical and sorted.
            return WordPoly(self.alg, tuple(t for t in self.terms if x not in t[1]))
        # A coefficient of 1 leaves the scale as it is, and builds no Fraction.
        fills = [(None if c == 1 else c, w) for c, w in replacement.terms]
        # levels[n] maps a state with n slots left, (prefix, pending key, rest
        # id), to [scale, fillings, pending].  rests[id] is each fill followed by
        # the next segment, and the next rest's id.  A word enters as the empty
        # state of its coefficient, before a rest of its own whose one step is its head.
        levels: defaultdict[int, dict] = defaultdict(dict)
        rests: list[tuple[list[Term], int | None]] = []
        rest_ids: dict[tuple[Word, int | None], int] = {}
        for coeff, word in self.terms:
            rid, end, n = None, len(word), 0
            for pos in range(len(word) - 1, -1, -1):
                if word[pos] is x:
                    segment, nxt, end, n = word[pos + 1 : end], rid, pos, n + 1
                    rid = rest_ids.setdefault((segment, nxt), len(rests))
                    if rid == len(rests):
                        rests.append(([(c, w + segment) for c, w in fills], nxt))
            levels[n + 1][(), None, len(rests)] = [coeff, 1, None]
            rests.append(([(None, word[:end])], rid))
        reached = 0  # fillings that reach a word of constants only
        for n in range(max(levels, default=0), 0, -1):
            into = levels[n - 1]
            for (out, _, rid), (scale, count, pending) in levels[n].items():
                if count > 1 and not scale:  # only merged fillings can cancel
                    if not out and reached < 2 and _ends_constant((out, pending, 1), rid, rests):
                        reached += count
                    continue
                steps, nxt = rests[rid]
                for c, w in steps:
                    state = _extend((out, pending, scale if c is None else scale * c), w)
                    if state is None:
                        continue
                    # An equal state sums the scales and counts.
                    o, p, s = state
                    v = p.value if p.__class__ is Const else p
                    new = [s, count, p]
                    slot = into.setdefault((o, v if v is None else v._ints or v._coords, nxt), new)
                    if slot is not new:
                        slot[0] += s
                        slot[1] += count
        ends = levels[0].items()
        reached += sum(count for (out, _, _), (_, count, _) in ends if not out)
        raw = [(s, _word(out, p) or (Const(self.alg.one),)) for (out, _, _), (s, _, p) in ends if s]
        # The fillings come out fused, so they only need merging; fillings
        # that cancelled count towards the words of constants only too.
        return WordPoly(self.alg, _collect(raw, self.alg if reached > 1 else None))

    def substitute_element(self, name: str, value: Element) -> "WordPoly":
        return self.substitute(name, WordPoly.constant(value))

    def derivative(self, name: str, new_symbol: str) -> "WordPoly":
        """Directional derivative in the variable: one slot replaced per term.

        A variable replaced by a variable leaves the words canonical, so the
        result is merged without the constant fusion of build.
        """
        x, new = Var(name), (Var(new_symbol),)
        raw: list[Term] = []
        for coeff, word in self.terms:
            for pos, f in enumerate(word):
                if f is x:
                    raw.append((coeff, word[:pos] + new + word[pos + 1 :]))
        return WordPoly(self.alg, _collect(raw))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for c, w in self.terms:
            factors = [
                f.name if isinstance(f, Var) else f"({f.value})" for f in w
            ]
            prefix = "" if c == 1 else f"{c}*"
            chunks.append(prefix + "*".join(factors))
        return " + ".join(chunks)


def word_eval(w: WordPoly, bindings: Mapping[str, Element]) -> Element:
    """Substitution and left-to-right product, each product from its word's
    exact scale, so float bindings round only in the products with them."""
    acc = w.alg.zero
    for coeff, word in w.terms:
        value = w.alg.scalar(coeff)
        for f in word:
            if isinstance(f, Var):
                if f.name not in bindings:
                    raise UnboundSymbol(f"no binding for {f.name}")
                value = mul(value, bindings[f.name])
            else:
                value = mul(value, f.value)
        acc = acc + value
    return acc


def _prefix_plan(terms: Iterable[Term]) -> list[tuple[Fraction, int, Word]]:
    """Each word as (coeff, s, rest): it shares its first s factors with the
    word before it, and rest follows them."""
    plan = []
    prev: Word = ()
    for coeff, word in terms:
        s = 0
        for f, g in zip(prev, word):
            if f is not g:
                break
            s += 1
        plan.append((coeff, s, word[s:]))
        prev = word
    return plan


def _eval_plan(
    alg: AlgebraSpec, plan: list[tuple[Fraction, int, Word]], bindings: Mapping[str, Element]
) -> Element:
    """The sum of the plan's words at the bindings, from one stack of prefix
    products: a word reuses the product of the prefix it shares with the word
    before it.  Words are summed per coefficient, and each sum scaled once."""
    sums: dict[Fraction, Element] = {}
    stack: list[Element] = []
    for coeff, shared, rest in plan:
        del stack[shared:]
        for f in rest:
            v = f.value if f.__class__ is Const else bindings[f.name]
            stack.append(mul(stack[-1], v) if stack else v)
        prev = sums.get(coeff)
        sums[coeff] = stack[-1] if prev is None else prev + stack[-1]
    return sum((v * c for c, v in sums.items()), alg.zero)


def extensional_equal(w1: WordPoly, w2: WordPoly) -> bool:
    """Equality as maps on the real coordinates, decided exactly.

    Unless the two match formally, each group of words of w1 - w2 of degree
    m_s in each symbol s is evaluated with each s running over the principal
    lattice of points sum a_i e_i (integers a_i >= 0 summing to m_s), which is
    unisolvent for maps of that degree (Chung & Yao, SIAM J. Numer. Anal. 14,
    1977).  The highest-degree symbol varies slowest, so an unequal pair meets
    a witness early.  Words in canonical order share prefixes with their
    neighbours, so each point evaluates a group as one walk of prefix
    products.  DegreeTooLarge past _MAX_EVAL_PRODUCTS products.
    """
    diff = w1 - w2
    if diff.is_zero():
        return True
    alg = w1.alg
    groups: dict[tuple, list[Term]] = {}
    for term in diff.terms:
        degrees = Counter(f.name for f in term[1] if isinstance(f, Var))
        key = tuple(sorted(degrees.items(), key=lambda sm: (-sm[1], sm[0])))
        groups.setdefault(key, []).append(term)
    products = 0
    for degrees, terms in groups.items():
        plan = _prefix_plan(terms)
        # The first factor of a word that shares nothing is no product.
        cost = sum(len(rest) - (not shared) for _, shared, rest in plan)
        lattices = [
            [_exact(alg, tuple(map(a.count, range(alg.dim))), 1)
             for a in itertools.combinations_with_replacement(range(alg.dim), m)]
            for _, m in degrees
        ]
        for point in itertools.product(*lattices):
            products += cost
            if products > _MAX_EVAL_PRODUCTS:
                raise DegreeTooLarge(f"equality needs more than {_MAX_EVAL_PRODUCTS} products")
            bindings = {s: v for (s, _), v in zip(degrees, point)}
            if not _eval_plan(alg, plan, bindings).is_zero():
                return False
    return True


@dataclass(frozen=True)
class Monomial:
    """a_0 x a_1 x ... x a_k held as its constant factors (a_0, ..., a_k)."""

    coefficients: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise DimensionMismatch("a monomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def alg(self) -> AlgebraSpec:
        return self.coefficients[0].alg


@dataclass(frozen=True)
class NCPoly:
    """Formal sum of monomials, the empty sum being zero; a record, not an algebra."""

    alg: AlgebraSpec
    monomials: tuple[Monomial, ...]

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.monomials), default=-1)

    def to_words(self, name: str = "x") -> WordPoly:
        # Monomials read back from words share their coefficient objects
        # (ncpoly_from_words), so each object is interned once.
        x, made = Var(name), {}
        raw = []
        for m in self.monomials:
            word: list[Factor] = [x] * (2 * len(m.coefficients) - 1)
            word[::2] = [made.get(id(c)) or made.setdefault(id(c), Const(c)) for c in m.coefficients]
            raw.append((Fraction(1), tuple(word)))
        return WordPoly.build(self.alg, raw)


def ncpoly_from_words(w: WordPoly, name: str = "x") -> NCPoly:
    """Rebuild a one-variable polynomial from its word form: a canonical word
    holds at most one constant, or none for the unit, between two variables."""
    monos = []
    alg = w.alg
    for coeff, word in w.terms:
        coeffs: list[Element] = []
        current = alg.one
        for f in word:
            if f.__class__ is Var:
                if f.name != name:
                    raise ParseError(f"unexpected symbol {f.name}")
                coeffs.append(current)
                current = alg.one
            else:
                current = f.value
        coeffs.append(current)
        if coeff != 1:
            coeffs[0] = coeff * coeffs[0]
        monos.append(Monomial(tuple(coeffs)))
    return NCPoly(alg, tuple(monos))


def eval_poly(p: NCPoly, x: Element) -> Element:
    """Exact evaluation of p's words at x."""
    if x.alg != p.alg:
        raise AlgebraMismatch("point belongs to a different algebra")
    return word_eval(p.to_words("x"), {"x": x})


def sym_derivative(p: NCPoly, order: int) -> WordPoly:
    """Order-m derivative as a word polynomial in h1..hm.

    Each step replaces one remaining x-slot by the next fresh symbol in every
    position, so a degree-n monomial contributes n(n-1)...(n-m+1) words and
    the result is symmetric under permuting the h's by construction.  The
    steps stop where the derivative first vanishes, so any order past the
    degree returns zero at once.
    """
    if order < 1:
        raise RangeError("derivative order must be at least 1")
    words = sum(math.perm(m.degree, order) for m in p.monomials)
    if words > MAX_DERIVATIVE_WORDS:
        raise DegreeTooLarge(
            f"order-{order} derivative would build {words} words "
            f"(limit {MAX_DERIVATIVE_WORDS})"
        )
    w = p.to_words("x")
    for q in range(1, order + 1):
        if w.is_zero():
            break
        w = w.derivative("x", f"h{q}")
    return w


def diagonal(w: WordPoly, order: int) -> WordPoly:
    """Bind h1..h_order to the one symbol h."""
    return w.rename({f"h{q}": "h" for q in range(1, order + 1)})


@dataclass(frozen=True)
class TaylorExpansion:
    """p re-expanded about a base point: terms[k] is the degree-k part in h."""

    base_point: Element
    terms: tuple[NCPoly, ...]

    def reconstruct(self) -> NCPoly:
        """Substitute h = x - base_point and expand back to a polynomial in x.

        All terms are substituted together, so the fillings of any of them
        merge where they meet.
        """
        alg = self.base_point.alg
        shift = WordPoly.variable(alg, "x") - WordPoly.constant(self.base_point)
        in_h = NCPoly(alg, tuple(m for t in self.terms for m in t.monomials)).to_words("h")
        return ncpoly_from_words(in_h.substitute("h", shift), "x")


def taylor_poly(p: NCPoly, y0: Element) -> TaylorExpansion:
    """Taylor coefficients (k!)^{-1} d^k p(y0) on the diagonal direction.

    On the diagonal, the order-k polarization of a_0 x a_1 ... x a_n holds
    each k-subset of the n x-slots k! times, so term k is the sum of the words
    with h in k slots and y0 in the others: the words of p(h + y0) that hold h
    k times.  The expansion terminates at deg p.  DegreeTooLarge when the
    terms would hold more than MAX_TAYLOR_WORDS words in all, counted as the
    sum of 2^n.
    """
    alg = p.alg
    words = sum(2**m.degree for m in p.monomials)
    if words > MAX_TAYLOR_WORDS:
        raise DegreeTooLarge(
            f"Taylor expansion would build {words} words (limit {MAX_TAYLOR_WORDS})"
        )
    shift = WordPoly.variable(alg, "h") + WordPoly.constant(y0)
    by_order: list[list[Term]] = [[] for _ in range(max(p.degree, 0) + 1)]
    for term in p.to_words("x").substitute("x", shift).terms:
        by_order[term[1].count(Var("h"))].append(term)
    terms = tuple(ncpoly_from_words(WordPoly(alg, tuple(t)), "h") for t in by_order)
    return TaylorExpansion(base_point=y0, terms=terms)
