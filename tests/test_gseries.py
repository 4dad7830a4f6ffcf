"""Truncated graded series in the odd time variables."""

import random
from fractions import Fraction

import pytest

from bkpq.gseries import BiSeries, OddSeries, TruncationError
from bkpq.pfaffian import MultiPoly
from test_gseries_oracle import GRADES, PRODUCTS, _weight, substitute_terms


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
    codec = t1.codec
    assert codec.grade(codec.encode(((1, 2), (3, 1)))) == (5,)
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
    p = a * OddSeries(4, b.terms)
    assert p.truncation_weight == 4
    assert p.coefficient(((1, 1), (3, 1),)) == 1


def test_ring_mismatch_names_both_rings():
    with pytest.raises(TruncationError) as err:
        MultiPoly(2, 4) + MultiPoly(3, 4)
    assert str(err.value) == (
        "ring mismatch: MultiPoly on DenseCodec(nvars=2, cutoff=4)"
        " vs MultiPoly on DenseCodec(nvars=3, cutoff=4)"
    )
    with pytest.raises(TruncationError) as err:
        BiSeries(4, 2) * BiSeries(2, 4)
    assert str(err.value) == (
        "ring mismatch: BiSeries on BiCodec(W=4, Wstar=2) vs BiSeries on BiCodec(W=2, Wstar=4)"
    )
    with pytest.raises(TruncationError) as err:
        OddSeries(3).first_difference(OddSeries(1))
    assert str(err.value) == (
        "ring mismatch: OddSeries on WeightedCodec(3, {1: 1, 3: 3})"
        " vs OddSeries on WeightedCodec(1, {1: 1})"
    )
    # equal numerators in different rings are different series
    assert MultiPoly.constant(2, 4) != MultiPoly.constant(3, 4)
    assert MultiPoly.constant(2, 4) == MultiPoly(2, 4, {(0, 0): 1}) == 1


def _coefficient(series, mono):
    """series.coefficient(mono); a BiSeries takes the two halves apart."""
    return series.coefficient(*mono) if type(series) is BiSeries else series.coefficient(mono)


def test_malformed_multipoly_monomials_raise():
    for index in (2, 5, -1):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 4, index)
    assert dict(MultiPoly.variable(2, 4, 1, 3).terms) == {(0, 3): 1}
    # a well-formed monomial over a cap is truncated, not refused, and its
    # coefficient is beyond the truncation
    assert MultiPoly.variable(2, 4, 0, 5).is_zero()
    assert OddSeries.variable(4, 5).is_zero()
    assert dict(OddSeries(4, {((3.0, 1),): 1}).terms) == {((3, 1),): 1}
    # so is an exponent: 1.0 is 1, in every ring
    assert dict(OddSeries(4, {((1, 1.0),): 1}).terms) == {((1, 1),): 1}
    assert dict(MultiPoly(2, 4, {(1.0, 2): 1}).terms) == {(1, 2): 1}
    assert dict(BiSeries(4, 6, {(((1, 1.0),), ((3, 2.0),)): 1}).terms) == {
        (((1, 1),), ((3, 2),)): 1
    }
    for make, mono in [
        (lambda terms: MultiPoly(2, 4, terms), (5, 0)),
        (lambda terms: OddSeries(4, terms), ((5, 1),)),
        (lambda terms: OddSeries(4, terms), ((1, 5),)),
        (lambda terms: BiSeries(4, 6, terms), ((), ((7, 1),))),
        # an index is compared by value, as a field lookup compares it
        (lambda terms: OddSeries(4, terms), ((9.0, 1),)),
        # and an exponent too, with or without a field
        (lambda terms: OddSeries(4, terms), ((9, 1.0),)),
        (lambda terms: OddSeries(4, terms), ((3, 2.0),)),
        (lambda terms: BiSeries(4, 6, terms), ((), ((7, 1.0),))),
        (lambda terms: MultiPoly(2, 4, terms), (5.0, 0)),
    ]:
        series = make({mono: 1})
        assert series.is_zero() and series.terms.get(mono) is None
        with pytest.raises(TruncationError):
            _coefficient(series, mono)
    # a monomial that is not one of the ring's raises whatever the cap, in the
    # constructor and in coefficient, and the terms view has no key for it
    malformed = [
        (
            lambda cap, terms=None: MultiPoly(2, cap, terms),
            [(1,), (), (1, 0, 0), (-1, 1), (2, -1), (-1, 9), 5]
            # an exponent that is not a whole number, whatever the cap
            + [(1, 2.5), (1.5, 0), (9.5, 0), (1, "1")],
        ),
        (
            OddSeries,
            [((2, 1),), ((2, 3),), ((1, -1),), ((9, -1),), ((0, 1),), ((-3, 1),), (("t", 1),)]
            + [((9.5, 1),), ((1, "e"),), (1,)]
            + [((1, 1.5),), ((9, 1.5),), ((1, "1"),), ((9, "1"),)]
            # one tuple per monomial: no zero exponent, no repeated index and
            # the indices in increasing order, compared by value over the cap too
            + [((1, 0),), ((1, 1), (1, 1)), ((3, 1), (1, 1)), ((11, 1), (9, 1))],
        ),
        (
            lambda cap, terms=None: BiSeries(cap, cap, terms),
            [(((2, 1),), ()), (((2, 3),), ()), ((), ((1, -1),)), ((), ((4, 1),))]
            + [(((9, 1),), ((2, 1),)), ((1,), ())]
            + [(((1, 1.5),), ()), ((), ((9, 1.5),)), ((), ((1, "1"),))]
            + [(((1, 0),), ()), ((), ((1, 1), (1, 1))), (((3, 1), (1, 1)), ())]
            + [((), ((1, 0),)), (((1, 1), (1, 1)), ()), ((), ((3, 1), (1, 1)))],
        ),
    ]
    for make, monos in malformed:
        for cap in (2, 4, 8):
            series = make(cap)
            for mono in monos:
                with pytest.raises(ValueError, match="is not a monomial of"):
                    make(cap, {mono: 1})
                with pytest.raises(ValueError, match="is not a monomial of"):
                    _coefficient(series, mono)
                assert series.terms.get(mono) is None
    for terms in [{((),): 1}, {((), (), ()): 1}, {5: 1}]:
        with pytest.raises(ValueError, match="is not a monomial of"):
            BiSeries(4, 4, terms)
    # the message names the monomial as given and the ring's codec
    for make, mono, codec in [
        (lambda: OddSeries(4, {((2, 3),): 1}), ((2, 3),), "WeightedCodec(4, {1: 1, 3: 3})"),
        (lambda: MultiPoly(2, 4, {(-1, 9): 1}), (-1, 9), "DenseCodec(nvars=2, cutoff=4)"),
        (lambda: BiSeries(4, 6, {((), ((2, 1),)): 1}), ((), ((2, 1),)), "BiCodec(W=4, Wstar=6)"),
    ]:
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == "%r is not a monomial of %s" % (mono, codec)


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


def test_weight_component_decomposition():
    rng = random.Random(3)
    f = rand_series(rng, 8) + OddSeries.constant(8, Fraction(5, 7))
    total = OddSeries(8)
    for w in range(9):
        total = total + f.weight_component(w)
    assert (total - f).is_zero()


def test_retruncate():
    # a series re-read at a lower weight keeps only the terms within it
    f = OddSeries.variable(8, 1).exp()
    g = OddSeries(4, f.terms)
    assert g.truncation_weight == 4
    assert g.coefficient(((1, 4),)) == Fraction(1, 24)


def test_json_round_trip():
    rng = random.Random(17)
    f = rand_series(rng, 8) + OddSeries.constant(8, Fraction(-3, 4))
    payload = f.to_json()
    assert payload["truncation_weight"] == 8
    for term in payload["terms"]:
        assert set(term) == {"exps", "coeff"}
        mono = tuple(sorted((int(m), e) for m, e in term["exps"].items()))
        assert Fraction(term["coeff"]) == f.coefficient(mono)
    assert len(payload["terms"]) == len(f.terms)


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
    assert BiSeries(W, W, {(ms, mt): c for (mt, ms), c in e.terms.items()}) == e
    # exp(t_1 + t*_1) at caps (1, 1) keeps t_1 t*_1, of total weight 2
    g = BiSeries(1, 1, {(((1, 1),), ()): 1, ((), ((1, 1),)): 1}).exp()
    assert g.coefficient(((1, 1),), ((1, 1),)) == 1


def test_first_difference_is_lowest_weight():
    W = 8
    t1, t3 = OddSeries.variable(W, 1), OddSeries.variable(W, 3)
    f = t1 * t1 * t1 * 2 + t3 + t1 * t1 * t1 * t3
    t1_4 = t1 * t1 * t1 * t1
    # t1^4 is the least monomial but weighs more than t3
    assert f.first_difference(f - t3 + t1_4) == ((3, 1),)
    # equal weights fall back to monomial order, not to the order of the
    # packed keys, where t1^4 comes first
    assert f.first_difference(f + t3 * t1 + t1_4) == ((1, 1), (3, 1))
    assert f.codec.encode(((1, 4),)) < f.codec.encode(((1, 1), (3, 1)))
    bi = BiSeries(W, 2, {(((1, 4),), ((1, 1),)): 1, (((1, 1), (3, 1)), ((1, 1),)): 1})
    assert bi.first_difference(bi * 2) == (((1, 1), (3, 1)), ((1, 1),))
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
    cases = [
        ([OddSeries(W, rand_series(rng, low).terms) + k for k in (1, -2)], lambda m: values[m]),
        ([rand_bi(), rand_bi()], lambda v: values[v[1]] * (1 - 2 * v[0])),
    ]
    for (a, b), image in cases:
        sa, sb = a.substitute(image), b.substitute(image)
        assert (a * b).substitute(image) == sa * sb
        assert (a + b).substitute(image) == sa + sb
        assert sa != 0 and sb != 0


def test_biseries_evaluation_matches_fraction_loop():
    from bkpq.rspec import RationalPS, SymmetricRational
    from bkpq.tau import tau_bkp

    rng = random.Random(53)
    W = 10

    def rand_mono(cap):
        d = {}
        for m in rng.sample([1, 3, 5, 7, 9], rng.randint(0, 3)):
            e = rng.randint(1, 3)
            if _weight(tuple(d.items())) + m * e <= cap:
                d[m] = e
        return tuple(sorted(d.items()))

    def rand_bi(Wstar):
        terms = {
            (rand_mono(W), rand_mono(Wstar)): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(40)
        }
        return BiSeries(W, Wstar, terms)

    F = Fraction
    series = [
        tau_bkp(SymmetricRational([F(1, 3)], [F(1, 5)]), W, W),
        tau_bkp(RationalPS([3, F(1, 2)], [F(5, 4)]), W, 7),
        rand_bi(W),
        rand_bi(6),
        BiSeries(W, W),
    ]
    times = [
        # zero, negative and absent times in each alphabet
        ({1: F(-2), 3: 0, 5: F(1, 3)}, {1: F(3, 4), 7: 0, 9: F(-5)}),
        ({3: F(-1, 2), 9: F(7, 3)}, {1: 0, 3: F(2), 5: F(-2, 3)}),
        ({1: F(5, 3), 9: 0}, {5: F(-1)}),
        ({1: 0, 3: 0}, {1: F(1, 2)}),
        ({}, {}),
    ]
    for _ in range(4):
        times.append(
            tuple(
                {m: F(rng.randint(-3, 3), rng.randint(1, 4)) for m in rng.sample(range(1, W, 2), 3)}
                for _ in "tt"
            )
        )
    for f in series:
        for t, ts in times:

            def image(v):
                return (t, ts)[v[0]].get(v[1], 0)

            got = f.substitute(image)
            assert type(got) is Fraction and got == substitute_terms(f, image, F(1)), (f, t, ts)


def test_multipoly_evaluation_matches_fraction_loop():
    rng = random.Random(59)
    nvars, cutoff = 4, 7
    series = [MultiPoly(nvars, cutoff)]
    for _ in range(4):
        monos = [_dense_monos(rng, nvars, cutoff, 1)[0] for _ in range(25)]
        terms = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for m in monos}
        series.append(MultiPoly(nvars, cutoff, terms) + rng.randint(-2, 2))
    points = [
        (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3)),
        # a zero variable drops every monomial that holds it
        (0, Fraction(-7, 5), 0, Fraction(2, 9)),
        (0, 0, 0, 0),
    ]
    for f in series:
        for x in points:
            got, want = f.substitute(x.__getitem__), substitute_terms(f, x.__getitem__, Fraction(1))
            assert type(got) is Fraction and got == want, (f, x)


def _mixed_biseries(W, Wstar, seed):
    """A weight-balanced tau and random terms of unequal weight, summed."""
    from bkpq.rspec import RationalPS
    from bkpq.tau import tau_bkp

    rng = random.Random(seed)
    tau = tau_bkp(RationalPS([3, Fraction(1, 2)], [Fraction(5, 4)]), W, Wstar)
    monos = [(_odd_monos(rng, W, 1)[0], _odd_monos(rng, Wstar, 1)[0]) for _ in range(20)]
    extra = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for m in monos}
    return tau + BiSeries(W, Wstar, extra)


def test_evaluation_with_zero_times_in_one_alphabet():
    """Every time of one alphabet zero, or every zero time in the t* half:
    a part is dropped only for its own alphabet's zeros."""
    W = 10
    ts = {1: Fraction(-2, 3), 3: Fraction(5, 2), 5: Fraction(1, 4), 7: -3, 9: Fraction(2, 7)}
    zero = {m: 0 for m in ts}
    half = {1: Fraction(3, 5), 3: 0, 5: Fraction(-1, 2), 7: 0, 9: 0}
    for f in [_mixed_biseries(W, W, 61), _mixed_biseries(W, 6, 67)]:
        for t, tstar in [(ts, half), (ts, zero), (zero, ts), (zero, zero), (half, ts)]:

            def image(v):
                return (t, tstar)[v[0]].get(v[1], 0)

            assert f.substitute(image) == substitute_terms(f, image, Fraction(1)), (f, t, tstar)
        # with the t alphabet at zero only the t-free terms count
        t_free = BiSeries(W, f.caps[1], {m: c for m, c in f.terms.items() if not m[0]})
        assert f.substitute(lambda v: (zero, half)[v[0]].get(v[1], 0)) == (
            t_free.substitute(lambda v: half.get(v[1], 0))
        )
    g = OddSeries(8, {((1, 2), (3, 1)): 3, ((5, 1),): -1, (): Fraction(2, 3)})
    assert g.substitute(lambda m: 0) == Fraction(2, 3)


def _odd_monos(rng, cap, count=2):
    """count odd-time monomials whose weights sum to at most cap; an exponent
    is often the largest the remaining weight allows, to fill its field."""
    out, budget = [], cap
    for _ in range(count):
        share, d = rng.randint(0, budget), {}
        for m in rng.sample(range(1, cap + 1, 2), (cap + 1) // 2):
            e = share // m if rng.random() < 0.3 else rng.randint(0, share // m)
            if e:
                d[m] = e
                share -= m * e
                budget -= m * e
        out.append(tuple(sorted(d.items())))
    return out


def _dense_monos(rng, nvars, cap, count=2):
    """count exponent tuples whose total degrees sum to at most cap; an
    exponent is often all the remaining degree, to fill its field."""
    out, budget = [], cap
    for _ in range(count):
        share, mono = rng.randint(0, budget), [0] * nvars
        for i in rng.sample(range(nvars), nvars):
            e = share if rng.random() < 0.3 else rng.randint(0, share)
            mono[i] = e
            share -= e
            budget -= e
        out.append(tuple(mono))
    return out


# caps are the constructor's arguments: (nvars, cutoff) for MultiPoly
@pytest.mark.parametrize(
    "ring, caps",
    [(OddSeries, (W,)) for W in (1, 14, 33, 64)]
    + [(BiSeries, (10, 6)), (BiSeries, (6, 10))]
    + [(MultiPoly, (2, 6)), (MultiPoly, (4, 14)), (MultiPoly, (8, 20))],
)
def test_packed_keys_round_trip_and_multiply_without_carry(ring, caps):
    rng = random.Random(sum(caps))
    codec = ring(*caps).codec
    mul, grade = PRODUCTS[ring], GRADES[ring]
    pairs = []
    for _ in range(300):
        if ring is OddSeries:
            pairs.append(_odd_monos(rng, caps[0]))
        elif ring is BiSeries:
            (a, b), (c, d) = (_odd_monos(rng, cap) for cap in caps)
            pairs.append(((a, c), (b, d)))
        else:
            pairs.append(_dense_monos(rng, *caps))
    if ring is MultiPoly:
        # every exponent field holds the cutoff, reached by a sum of keys
        nvars, cap = caps
        pairs += [
            tuple(tuple(e if k == i else 0 for k in range(nvars)) for e in (cap - 1, 1))
            for i in range(nvars)
        ]
    for a, b in pairs:
        ka, kb = codec.encode(a), codec.encode(b)
        assert codec.decode(ka) == a and codec.decode(kb) == b
        assert codec.grade(ka) == grade(a) and codec.grade(kb) == grade(b)
        assert codec.decode(ka + kb) == mul(a, b) == mul(b, a)
        assert codec.grade(ka + kb) == tuple(map(sum, zip(grade(a), grade(b))))
        product = ring(*caps, {a: 2}) * ring(*caps, {b: Fraction(1, 3)})
        assert dict(product.terms) == {mul(a, b): Fraction(2, 3)}
    if ring is MultiPoly:
        nvars, cap = caps
        # a degree over the cutoff
        over = [(cap + 1,) + (0,) * (nvars - 1), (cap,) + (1,) * (nvars - 1)]
        # wrong length or a negative exponent
        malformed = [(0,) * (nvars - 1), (0,) * (nvars + 1), (-1,) + (0,) * (nvars - 1)]
    else:
        # a weight over a cap, and an odd index above it, which has no field
        over = [[((1, W + 1),), ((W + 1 + W % 2, 1),)] for W in caps]
        # an even index, a negative or zero exponent, a repeated index or
        # indices out of order
        malformed = [((2, 1),), ((1, -1),), ((1, 0),), ((1, 1), (1, 1)), ((3, 1), (1, 1))]
        if ring is OddSeries:
            over = over[0]
        else:
            over = [(mono, ()) for mono in over[0]] + [((), mono) for mono in over[1]]
            malformed = [(mono, ()) for mono in malformed] + [((), mono) for mono in malformed]
    assert all(codec.encode(mono) is None for mono in over)
    for mono in malformed:
        with pytest.raises(ValueError):
            codec.encode(mono)
