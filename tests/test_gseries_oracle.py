"""The integer-numerator series core against a Fraction-dict reference.

`RefSeries` is the series arithmetic with one Fraction per coefficient, as
the core computed it before it kept integer numerators over one
denominator: every product and sum is a Fraction operation and zeros are
dropped.  Its keys are the tuple monomials, multiplied by the tuple
products in `PRODUCTS`, not by packed keys, and it grades and names their
variables by its own tables `GRADES` and `NAMES`; it borrows nothing from
the ring it models but the name.  So it checks the core's key packing, the
codec's grading and naming, and its numerator and denominator bookkeeping.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpq.gseries import BiSeries, OddSeries
from bkpq.pfaffian import MultiPoly

F = Fraction


def _odd_product(a, b):
    d = dict(a)
    for m, e in b:
        d[m] = d.get(m, 0) + e
    return tuple(sorted(d.items()))


# the product of two monomials of each ring, on the tuples
PRODUCTS = {
    OddSeries: _odd_product,
    BiSeries: lambda a, b: (_odd_product(a[0], b[0]), _odd_product(a[1], b[1])),
    MultiPoly: lambda a, b: tuple(x + y for x, y in zip(a, b)),
}


def _weight(mono):
    return sum(m * e for m, e in mono)


# the grade of a monomial of each ring, one weight per cap
GRADES = {
    OddSeries: lambda m: (_weight(m),),
    BiSeries: lambda m: (_weight(m[0]), _weight(m[1])),
    MultiPoly: lambda m: (sum(m),),
}

# (variable, exponent) for each variable of a monomial of each ring: t_m is
# m, t_m and t*_m of a BiSeries are (0, m) and (1, m), and x_k is k
NAMES = {
    OddSeries: lambda m: m,
    BiSeries: lambda m: [((i, v), e) for i, part in enumerate(m) for v, e in part],
    MultiPoly: lambda m: [(k, e) for k, e in enumerate(m) if e],
}


def substitute_terms(f, image, one, ring=None):
    """The ring map that sends each variable v of f to image(v), into the
    ring whose unit is `one`: one Fraction per term of f.terms, times
    image(v) once per unit of v's exponent, summed in the target ring.  It
    names the variables by NAMES for `ring` (f's type by default), so it
    shares nothing with the codec's split of a key into parts.
    """
    total = one * 0
    for mono, c in f.terms.items():
        term = c
        for v, e in NAMES[ring or type(f)](mono):
            for _ in range(e):
                term = image(v) * term
        total = total + term
    return total


class RefSeries:
    def __init__(self, ring, caps, unit, terms):
        self.ring, self.caps, self.unit = ring, caps, unit
        self.terms = {
            m: Fraction(c)
            for m, c in terms.items()
            if c and all(w <= cap for w, cap in zip(GRADES[ring](m), caps))
        }

    def like(self, terms):
        return RefSeries(self.ring, self.caps, self.unit, terms)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.like({self.unit: Fraction(other)})
        return other

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return self.like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self.like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.like({m: c * other for m, c in self.terms.items()})
        terms = {}
        mul = PRODUCTS[self.ring]
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = mul(ma, mb)
                terms[key] = terms.get(key, 0) + ca * cb
        return self.like(terms)

    __rmul__ = __mul__

    def exp(self):
        result = power = self.like({self.unit: 1})
        for k in range(1, sum(self.caps) + 1):
            power = power * self
            result = result + power * Fraction(1, factorial(k))
        return result

    def substitute(self, image, one):
        return substitute_terms(self, image, one, self.ring)

    def partial(self, m):
        terms = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.pop(m, 0)
            if e:
                if e > 1:
                    d[m] = e - 1
                key = tuple(sorted(d.items()))
                terms[key] = terms.get(key, 0) + c * e
        return self.like(terms)

    def weight_component(self, w):
        return self.like({m: c for m, c in self.terms.items() if GRADES[self.ring](m)[0] == w})

    def scaled(self, factor):
        return self.like({m: c * factor(m) for m, c in self.terms.items()})

    def swap(self):
        terms = {(s, t): c for (t, s), c in self.terms.items()}
        return RefSeries(self.ring, self.caps[::-1], self.unit, terms)

    def first_difference(self, other):
        a, b = self.terms, other.terms
        return min(
            (m for m in a.keys() | b.keys() if a.get(m) != b.get(m)),
            key=lambda m: (sum(GRADES[self.ring](m)), m),
            default=None,
        )


def _build(ring, caps, terms):
    if ring is MultiPoly:
        return MultiPoly(2, caps[0], terms)
    return ring(*caps, terms)


# denominators that share factors, so sums and products leave some to cancel
FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
ODD_MONO = st.dictionaries(st.sampled_from([1, 3, 5]), st.integers(1, 3), max_size=2).map(
    lambda d: tuple(sorted(d.items()))
)
RINGS = {
    "odd": (OddSeries, st.tuples(st.integers(0, 7)), (), ODD_MONO),
    "bi": (
        BiSeries,
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda c: c[0] != c[1]),
        ((), ()),
        st.tuples(ODD_MONO, ODD_MONO),
    ),
    "multi": (
        MultiPoly,
        st.tuples(st.integers(0, 6)),
        (0, 0),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
}
VARIABLES = {
    "odd": (1, 3, 5),
    "bi": tuple((a, m) for a in (0, 1) for m in (1, 3, 5)),
    "multi": (0, 1),
}


def _assert_canonical(s):
    assert type(s.den) is int and s.den >= 1
    assert all(type(v) is int and v for v in s.num.values())
    assert gcd(s.den, *s.num.values()) == 1


def _assert_same(got, ref):
    _assert_canonical(got)
    assert got.caps == tuple(ref.caps)
    assert dict(got.terms) == ref.terms
    assert all(type(c) is Fraction for c in got.terms.values())


# (ring, caps, unit, terms), each with zero constant term: a denominator d
# > 1 that S^k carries as d^k, the vacuum kernel sum (m/2) t_m t*_m at
# equal and unequal caps, terms of unequal t and t* weight under unequal
# caps, and total degree
EXP_CASES = [
    (OddSeries, (9,), (), {((1, 1),): F(1, 2), ((3, 1),): F(-2, 3), ((1, 2),): F(5, 4)}),
    (BiSeries, (7, 7), ((), ()), {(((m, 1),), ((m, 1),)): F(m, 2) for m in (1, 3, 5, 7)}),
    (BiSeries, (10, 6), ((), ()), {(((m, 1),), ((m, 1),)): F(m, 2) for m in (1, 3, 5)}),
    (BiSeries, (6, 10), ((), ()), {(((m, 1),), ((m, 1),)): F(m, 2) for m in (1, 3, 5)}),
    (
        BiSeries,
        (6, 3),
        ((), ()),
        {(((1, 1),), ((1, 1),)): F(1, 2), (((3, 1),), ()): F(-2, 3), ((), ((1, 2),)): F(5, 7)},
    ),
    (MultiPoly, (6,), (0, 0), {(1, 0): F(1, 3), (0, 1): F(-1, 2), (1, 1): 2, (0, 3): F(3, 4)}),
]


@pytest.mark.parametrize("ring, caps, unit, terms", EXP_CASES)
def test_exp_matches_fraction_reference(ring, caps, unit, terms):
    got = _build(ring, caps, terms).exp()
    _assert_same(got, RefSeries(ring, caps, unit, terms).exp())
    assert len(got.num) > len(terms)


@pytest.mark.parametrize("kind", sorted(RINGS))
@settings(max_examples=60)
@given(data=st.data())
def test_core_matches_fraction_reference(kind, data):
    ring, caps_strategy, unit, monos = RINGS[kind]
    caps = data.draw(caps_strategy)
    raw = [data.draw(st.dictionaries(monos, FRACTIONS, max_size=6)) for _ in range(3)]
    k = data.draw(FRACTIONS)
    a, b, c = (_build(ring, caps, t) for t in raw)
    ra, rb, rc = (RefSeries(ring, caps, unit, t) for t in raw)
    x, rx = a - a.constant_term(), ra - ra.terms.get(unit, 0)

    cases = [
        (a, ra),
        (a + b, ra + rb),
        (a - b, ra - rb),
        (-a, -ra),
        (a + k, ra + k),
        (a * k, ra * k),
        (3 * a, ra * 3),
        (a * b, ra * rb),
        (a * b * c, ra * rb * rc),
        (x.exp(), rx.exp()),
    ]
    cases += [(a.weight_component(w), ra.weight_component(w)) for w in (0, 1)]
    if kind == "odd":
        cases += [(a.partial(m), ra.partial(m)) for m in (1, 3)]
    for got, ref in cases:
        _assert_same(got, ref)

    assert a.first_difference(b) == ra.first_difference(rb)
    assert a.first_difference(a + b - b) is None
    # equal values reached by different routes are equal and hash alike
    for p, q in [(a * (b + c), a * b + a * c), ((a + b) + c, a + (b + c)), (a * k, k * a)]:
        assert p == q and hash(p) == hash(q)

    values = {v: data.draw(FRACTIONS) for v in VARIABLES[kind]}
    assert a.substitute(values.get) == ra.substitute(values.get, Fraction(1))


@pytest.mark.parametrize("kind", sorted(RINGS))
@settings(max_examples=60)
@given(data=st.data())
def test_substitute_terms_matches_substitute_at_numbers(kind, data):
    """The test-side ring map against the core's evaluation, on each ring's
    own series: the reference that tau_as_multipoly and tau_hyper_tinfty
    are held to is itself held to `substitute`, zero values included."""
    ring, caps_strategy, _, monos = RINGS[kind]
    caps, terms = data.draw(caps_strategy), data.draw(st.dictionaries(monos, FRACTIONS, max_size=8))
    a = _build(ring, caps, terms)
    values = {v: data.draw(FRACTIONS) for v in VARIABLES[kind]}
    got = substitute_terms(a, values.get, Fraction(1))
    assert type(got) is Fraction and got == a.substitute(values.get), (a, values)
