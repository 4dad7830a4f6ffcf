"""Truncated graded series in the odd time variables."""

import random
from fractions import Fraction

import pytest

from bkpq.gseries import BiSeries, OddSeries, TruncationError, mono_weight


def rand_series(rng, W, nterms=6):
    """A random series with rational coefficients, no constant term."""
    out = OddSeries(W)
    for _ in range(nterms):
        m = rng.choice([1, 3, 5, 7])
        e = rng.randint(1, 3)
        if m * e > W:
            continue
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        term = OddSeries.variable(W, m)
        for _ in range(e - 1):
            term = term * OddSeries.variable(W, m)
        out = out + term * c
    return out


def test_variable_and_weight():
    t1 = OddSeries.variable(8, 1)
    assert t1.coefficient(((1, 1),)) == 1
    assert mono_weight(((1, 2), (3, 1))) == 5
    with pytest.raises(ValueError):
        OddSeries.variable(8, 2)


def test_mul_convolution():
    W = 6
    t1 = OddSeries.variable(W, 1)
    t3 = OddSeries.variable(W, 3)
    p = (t1 + t3) * (t1 - t3)
    assert p.coefficient(((1, 2),)) == 1
    assert p.coefficient(((3, 2),)) == -1
    assert p.coefficient(((1, 1), (3, 1))) == 0


def test_mul_rejects_truncation_mismatch():
    a = OddSeries.variable(4, 1)
    b = OddSeries.variable(8, 3)
    with pytest.raises(TruncationError):
        a * b
    p = a * b.retruncate(4)
    assert p.truncation_weight == 4
    assert p.coefficient(((1, 1), (3, 1),)) == 1


def test_coefficient_beyond_truncation_raises():
    t1 = OddSeries.variable(4, 1)
    with pytest.raises(TruncationError):
        t1.coefficient(((1, 5),))


def test_exp_of_t1():
    W = 8
    e = OddSeries.variable(W, 1).exp()
    fact = 1
    for n in range(W + 1):
        if n:
            fact *= n
        assert e.coefficient(((1, n),) if n else ()) == Fraction(1, fact)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        (OddSeries.constant(6, 1)).exp()


def test_exp_inverse_property():
    rng = random.Random(11)
    for _ in range(8):
        a = rand_series(rng, 8)
        prod = a.exp() * (-a).exp()
        assert (prod - OddSeries.constant(8, 1)).is_zero()


def test_ring_axioms_random():
    rng = random.Random(23)
    one = OddSeries.constant(8, 1)
    for _ in range(6):
        a, b, c = (rand_series(rng, 8) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * b - b * a).is_zero()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a * one - a).is_zero()
        assert (a - a).is_zero()


def test_partial_leibniz():
    rng = random.Random(5)
    for m in (1, 3):
        a = rand_series(rng, 8)
        b = rand_series(rng, 8)
        lhs = (a * b).partial(m)
        rhs = a.partial(m) * b + a * b.partial(m)
        assert (lhs - rhs).is_zero()


def test_partial_example():
    W = 6
    t1 = OddSeries.variable(W, 1)
    f = t1 * t1 * Fraction(1, 2)
    assert (f.partial(1) - t1).is_zero()
    assert f.partial(3).is_zero()


def test_substitute_scaled():
    W = 6
    a = Fraction(2)
    f = OddSeries.variable(W, 1) + OddSeries.variable(W, 3)
    g = f.substitute_scaled(a)
    assert g.coefficient(((1, 1),)) == 2
    assert g.coefficient(((3, 1),)) == 8
    # substitution is a ring map: commutes with exp
    h = f.exp().substitute_scaled(a)
    assert (h - g.exp()).is_zero()


def test_weight_component_decomposition():
    rng = random.Random(3)
    f = rand_series(rng, 8) + OddSeries.constant(8, Fraction(5, 7))
    total = OddSeries(8)
    for w in range(9):
        total = total + f.weight_component(w)
    assert (total - f).is_zero()


def test_retruncate():
    f = OddSeries.variable(8, 1).exp()
    g = f.retruncate(4)
    assert g.truncation_weight == 4
    assert g.coefficient(((1, 4),)) == Fraction(1, 24)


def test_json_round_trip():
    rng = random.Random(17)
    f = rand_series(rng, 8) + OddSeries.constant(8, Fraction(-3, 4))
    payload = f.to_json()
    assert payload["truncation_weight"] == 8
    for term in payload["terms"]:
        assert set(term) == {"exps", "coeff"}
        Fraction(term["coeff"])  # parses as exact rational
    g = OddSeries.from_json(payload)
    assert (f - g).is_zero()


def pair_term(W, m):
    """The bilinear monomial t_m t*_m as a BiSeries."""
    return BiSeries(W, W, {(((m, 1),), ((m, 1),)): Fraction(1)})


def test_biseries_exp_and_swap():
    # kernel sum_m (m/2) t_m t*_m is swap-invariant, so is its exponential
    W = 6
    ker = BiSeries(W, W)
    for m in (1, 3, 5):
        ker = ker + pair_term(W, m) * Fraction(m, 2)
    e = ker.exp()
    assert e.coefficient((), ()) == 1
    assert e.coefficient(((1, 1),), ((1, 1),)) == Fraction(1, 2)
    assert e.coefficient(((3, 1),), ((3, 1),)) == Fraction(3, 2)
    assert e.coefficient(((1, 2),), ((1, 2),)) == Fraction(1, 8)
    assert (e - e.swap()) == BiSeries(W, W)
    # exp(t_1 + t*_1) at caps (1, 1) keeps t_1 t*_1, of total weight 2
    g = BiSeries(1, 1, {(((1, 1),), ()): 1, ((), ((1, 1),)): 1}).exp()
    assert g.coefficient(((1, 1),), ((1, 1),)) == 1


def test_biseries_scaling():
    W = 6
    a = Fraction(2)
    f = BiSeries(W, W, {(((3, 1),), ()): Fraction(1), ((), ((3, 1),)): Fraction(1)})
    g = f.substitute_scaled(a)
    assert g.coefficient(((3, 1),), ()) == 8
    assert g.coefficient((), ((3, 1),)) == Fraction(1, 8)
    # balanced monomials are fixed
    h = pair_term(W, 3).substitute_scaled(a)
    assert h == pair_term(W, 3)


def test_first_difference_is_lowest_weight():
    from bkpq.pfaffian import MultiPoly

    W = 8
    t1, t3 = OddSeries.variable(W, 1), OddSeries.variable(W, 3)
    f = t1 * t1 * t1 * 2 + t3 + t1 * t1 * t1 * t3
    t1_4 = t1 * t1 * t1 * t1
    # t1^4 is the least monomial but weighs more than t3
    assert f.first_difference(f - t3 + t1_4) == ((3, 1),)
    # equal weights fall back to monomial order
    assert f.first_difference(f + t3 * t1 + t1_4) == ((1, 1), (3, 1))
    assert f.first_difference(f * 1) is None

    bi = BiSeries(W, W, {(((1, 1),), ((1, 1),)): 1, (((3, 1),), ()): 2})
    other = BiSeries(W, W, {(((1, 1),), ((1, 1),)): 1, ((), ((5, 1),)): 5})
    assert bi.first_difference(other) == (((3, 1),), ())
    assert bi.first_difference(BiSeries(W, W, bi.terms)) is None

    p = MultiPoly(2, 6, {(2, 0): 1, (0, 3): 1, (1, 1): 4})
    q = MultiPoly(2, 6, {(2, 0): 1, (3, 0): 1, (1, 1): 3})
    assert p.first_difference(q) == (1, 1)
    assert p.first_difference(p + 0) is None
    with pytest.raises(TruncationError):
        p.first_difference(MultiPoly(2, 5))


def test_substitute_is_a_ring_map():
    from bkpq.pfaffian import MultiPoly

    rng = random.Random(31)
    W, low = 8, 4  # weights <= low each, so no product loses a term to W

    def rand_bi():
        t, ts = rand_series(rng, low), rand_series(rng, low)
        terms = {((), ()): Fraction(rng.randint(-3, 3))}
        terms.update(((mt, ()), c) for mt, c in t.terms.items())
        for mt, ct in t.terms.items():
            for ms, cs in ts.terms.items():
                if rng.random() < 0.5:
                    terms[(mt, ms)] = ct * cs
        return BiSeries(W, W, terms)

    values = {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in (1, 3, 5, 7)}
    # t_m goes to a degree-m polynomial in x, y; t*_m to one in y alone
    poly = MultiPoly.constant(2, 2 * W)
    x = [MultiPoly.variable(2, 2 * W, k, m) for k in (0, 1) for m in range(8)]
    odd_targets = [
        (lambda m: values[m], Fraction(1)),
        (lambda m: x[m] * 2 - x[8 + m], poly),
    ]
    bi_targets = [
        (lambda v: values[v[1]] * (1 - 2 * v[0]), Fraction(1)),
        (lambda v: x[8 * v[0] + v[1]] + x[8 + v[1]] * 3, poly),
    ]
    cases = [
        ([rand_series(rng, low).retruncate(W) + k for k in (1, -2)], odd_targets),
        ([rand_bi(), rand_bi()], bi_targets),
    ]
    for (a, b), targets in cases:
        for image, one in targets:
            sa, sb = a.substitute(image, one), b.substitute(image, one)
            assert (a * b).substitute(image, one) == sa * sb
            assert (a + b).substitute(image, one) == sa + sb
            assert sa != 0 and sb != 0
