"""Projective Schur functions Q_lambda(t/2), Schur functions at odd times,
evaluations, and the canonical scalar product."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

import pytest

from bkpq.gseries import OddSeries, odd_codec
from bkpq.partitions import (
    Partition,
    StrictPartition,
    conjugate,
    double,
    enumerate_partitions,
    enumerate_strict,
)
from bkpq.pfaffian import pfaffian
from bkpq.qschur import (
    XPoint,
    _bars,
    _miwa_reader,
    _numbering,
    _strips,
    delta,
    eval_at_x,
    h_k,
    q_expand,
    q_lambda,
    scalar_product,
    schur_s,
)
from bkpq.rspec import hook_star
from test_gseries_oracle import substitute_terms

F = Fraction


def test_h_k_small():
    W = 8
    assert (h_k(0, W) - OddSeries.constant(W, 1)).is_zero()
    t1 = OddSeries.variable(W, 1)
    t3 = OddSeries.variable(W, 3)
    assert (h_k(1, W) - t1).is_zero()
    assert (h_k(2, W) - t1 * t1 * F(1, 2)).is_zero()
    assert (h_k(3, W) - (t1 * t1 * t1 * F(1, 6) + t3)).is_zero()


def test_h_generating_recurrence():
    # k h_k = sum over odd m <= k of m t_m h_{k-m}
    W = 10
    for k in range(1, W + 1):
        acc = OddSeries(W)
        for m in range(1, k + 1, 2):
            acc = acc + OddSeries.variable(W, m) * h_k(k - m, W) * m
        assert (h_k(k, W) * k - acc).is_zero()


def _numbering_by_odd_parts(w, W):
    """The sorted keys of odd_codec(W)'s monomials of weight w, built one odd
    part at a time: the numbering `_numbering` made before it read h_w."""
    codec = odd_codec(W)
    below = [[0]] + [[] for _ in range(w)]  # weight s -> keys, weight field left out
    for m in range(1, w + 1, 2):
        step = codec.variable(m) - m
        for s in range(m, w + 1):
            below[s] += [k + step for k in below[s - m]]
    return sorted(k + w for k in below[w])


def test_numbering_lists_the_monomials_of_weight_w_in_one_order_at_every_cap():
    # tau's weight blocks pair the i-th monomial of the t cap's numbering
    # with the j-th of the t* cap's
    for w in range(13):
        first = None
        for W in range(w, 17):
            keys = _numbering(w, W)[0]
            assert keys == _numbering_by_odd_parts(w, W), (w, W)
            monomials = [odd_codec(W).decode(k) for k in keys]
            first = first or monomials
            assert monomials == first, (w, W)


def test_q_lambda_frozen_values():
    W = 8
    t1 = OddSeries.variable(W, 1)
    t3 = OddSeries.variable(W, 3)
    q21 = q_lambda(StrictPartition([2, 1]), W)
    assert (q21 - (t1 * t1 * t1 * F(1, 6) - t3 * 2)).is_zero()
    q3 = q_lambda(StrictPartition([3]), W)
    assert (q3 - (t1 * t1 * t1 * F(1, 6) + t3)).is_zero()


def _q_pfaffian_reference(W):
    """Q_lambda(t/2) as the Pfaffian of two-row blocks, the construction the
    bar recurrence replaced: the reference q_lambda is held to.

    Q_(a,b) = h_a h_b + 2 sum_{i=1}^{b} (-1)^i h_{a+i} h_{b-i} for a > b >= 0,
    antisymmetric in (a, b), and Q_lambda is the Pfaffian of the Q_(a,b) over
    the parts of lambda padded by a zero to even length.
    """
    blocks = {}

    def two_row(a, b):
        if (a, b) not in blocks:
            acc = h_k(a, W) * h_k(b, W)
            for i in range(1, b + 1):
                acc = acc + h_k(a + i, W) * h_k(b - i, W) * (2 * (-1) ** i)
            blocks[a, b] = acc
        return blocks[a, b]

    def q(parts):
        padded = parts + (0,) * (len(parts) % 2)
        k = len(padded)
        upper = {(i, j): two_row(padded[i], padded[j]) for i in range(k) for j in range(i + 1, k)}
        return pfaffian(upper, k, one=OddSeries.constant(W))

    return q


def test_q_lambda_matches_two_row_pfaffian():
    W = 16
    reference = _q_pfaffian_reference(W)
    for lam in enumerate_strict(W):
        assert q_lambda(lam, W) == reference(lam.parts), lam


def test_bar_rule_gives_every_partial_derivative():
    # dQ_lambda/dt_m is the signed sum of Q over the m-bars of lambda
    W = 12
    for lam in enumerate_strict(W):
        q = q_lambda(lam, W)
        for m in range(1, W + 1, 2):
            want = OddSeries(W)
            for c, mu in _bars(lam.parts, m):
                want = want + q_lambda(StrictPartition(mu), W) * c
            assert q.partial(m) == want, (lam, m)


def test_q_lambda_homogeneous():
    for lam in enumerate_strict(7):
        q = q_lambda(lam, 8)
        assert (q - q.weight_component(lam.weight)).is_zero()


def test_schur_frozen_values():
    W = 8
    t1 = OddSeries.variable(W, 1)
    t3 = OddSeries.variable(W, 3)
    assert (schur_s(Partition([1]), W) - t1).is_zero()
    s21 = schur_s(Partition([2, 1]), W)
    assert (s21 - (t1 * t1 * t1 * F(1, 3) - t3)).is_zero()


def _jacobi_trudi_full_rows(mu, W):
    """Reference s_mu: Jacobi-Trudi on all the rows of mu, no cache, no conjugate."""
    parts = mu.parts
    k = len(parts)

    def entry(i, j):
        d = parts[i] - i + j
        if d < 0 or d > W:
            return OddSeries(W)
        return h_k(d, W)

    memo = {}

    def minor(row, cols):
        if row == k:
            return OddSeries.constant(W)
        key = (row, cols)
        if key not in memo:
            acc = OddSeries(W)
            for pos, j in enumerate(cols):
                sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
                acc = acc + entry(row, j) * sub * F((-1) ** pos)
            memo[key] = acc
        return memo[key]

    return minor(0, tuple(range(k)))


def test_schur_matches_full_row_jacobi_trudi_on_mu_and_conjugate():
    # s_mu = s_mu' at odd times; schur_s builds mu and mu' each by its own
    # strip recurrence, and the determinant is a route independent of it
    W = 10
    for mu in [Partition([])] + enumerate_partitions(W):
        got = schur_s(mu, W)
        assert got == _jacobi_trudi_full_rows(mu, W), mu
        assert got == _jacobi_trudi_full_rows(conjugate(mu), W), mu


@lru_cache(maxsize=None)
def _character(parts, rho):
    """The irreducible character chi^parts at the cycle type rho, an int.

    Murnaghan-Nakayama on the beta-set (abacus) of parts: a border strip of
    length rho[0] is a bead moved from b down to a free position b - rho[0],
    signed by the parity of the beads it passes (Macdonald, Symmetric
    Functions, I.7).  rho[1:] is charged to the shape left over.
    """
    if not rho:
        return 1
    r, k = rho[0], len(parts)
    beta = [p + k - 1 - i for i, p in enumerate(parts)]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            moved = sorted((c - r if c == b else c for c in beta), reverse=True)
            shape = tuple(p for p in (c - (k - 1 - i) for i, c in enumerate(moved)) if p)
            crossed = sum(b - r < c < b for c in beta)
            total += (-1) ** crossed * _character(shape, rho[1:])
    return total


def _parts_of_weight(w, cap=None):
    """The partitions of w with parts <= cap (default w), first part
    descending: the recursion that enumerate_partitions ran before its table."""
    if cap is None:
        cap = w
    if w == 0:
        yield ()
        return
    for first in range(min(w, cap), 0, -1):
        for rest in _parts_of_weight(w - first, first):
            yield (first,) + rest


def test_enumerate_partitions_matches_the_recursion():
    assert list(_parts_of_weight(0)) == [()]
    for W in range(16):
        got = enumerate_partitions(W)
        assert [p.parts for p in got] == [p for w in range(1, W + 1) for p in _parts_of_weight(w)]
        assert all(type(p) is Partition and p == Partition(p.parts) for p in got)


@lru_cache(maxsize=None)
def _odd_classes(n):
    """(rho, the monomial prod_m t_m^e_m, prod_m e_m!) over the partitions rho
    of n into odd parts, e_m being the multiplicity of m in rho."""
    out = []
    for rho in _parts_of_weight(n):
        if any(m % 2 == 0 for m in rho):
            continue
        exps = Counter(rho)
        den = prod(factorial(e) for e in exps.values())
        out.append((rho, tuple(sorted(exps.items())), den))
    return tuple(out)


def _murnaghan_nakayama(parts, W):
    """s_parts = sum over odd cycle types rho of chi^parts_rho prod_m t_m^e_m / e_m!.

    With h_k = [z^k] e^{sum t_m z^m} the power sums are p_m = m t_m, so the
    z_rho of the character expansion leaves prod_m e_m! (Macdonald, I.7);
    even times are zero, so only the rho with odd parts remain.  The terms
    are summed in integers over the lcm of those factorials.  The reference
    s_mu is held to: a route that shares no code with the strip recurrence.
    """
    classes = _odd_classes(sum(parts))
    L = lcm(1, *(d for _, _, d in classes))
    encode = odd_codec(W).encode
    num = {encode(mono): _character(parts, rho) * (L // d) for rho, mono, d in classes}
    return OddSeries(W)._like(num, L)


def test_schur_matches_murnaghan_nakayama():
    W = 14
    for mu in [Partition([])] + enumerate_partitions(W):
        assert schur_s(mu, W) == _murnaghan_nakayama(mu.parts, W), mu


def test_strip_rule_gives_every_partial_derivative():
    # ds_mu/dt_m is the signed sum of s over the m-border strips of mu
    W = 12
    for mu in enumerate_partitions(W):
        s = schur_s(mu, W)
        for m in range(1, W + 1, 2):
            want = OddSeries(W)
            for c, nu in _strips(mu.parts, m):
                want = want + schur_s(Partition(nu), W) * c
            assert s.partial(m) == want, (mu, m)


def test_characters_are_column_orthogonal():
    # sum over mu |- n of chi^mu_rho chi^mu_sigma = delta_{rho sigma} z_rho,
    # a property of the character table that needs no second route to s_mu
    for n in range(1, 13):
        shapes = [mu.parts for mu in enumerate_partitions(n) if mu.weight == n]
        classes = [rho for rho, _, _ in _odd_classes(n)]
        for rho in classes:
            z = prod(m ** e * factorial(e) for m, e in Counter(rho).items())
            for sigma in classes:
                got = sum(_character(mu, rho) * _character(mu, sigma) for mu in shapes)
                assert got == (z if rho == sigma else 0), (rho, sigma)


def test_square_identity_small():
    # 2^{-l} Q_lambda^2 equals the Schur function of the doubled partition
    for lam in enumerate_strict(6):
        q = q_lambda(lam, 12)
        lhs = q * q * F(1, 2 ** lam.length)
        rhs = schur_s(double(lam), 12)
        assert (lhs - rhs).is_zero()


def test_q_lambda_and_schur_s_refuse_a_partition_over_the_cap():
    with pytest.raises(ValueError, match="^partition weight 5 exceeds truncation 4$"):
        q_lambda(StrictPartition((3, 2)), 4)
    with pytest.raises(ValueError, match="^partition weight 5 exceeds truncation 4$"):
        schur_s(Partition((3, 2)), 4)
    with pytest.raises(ValueError, match="^h_5 exceeds truncation weight 4$"):
        h_k(5, 4)


def test_xpoint_validation():
    with pytest.raises(ValueError):
        XPoint([F(0)])
    assert repr(XPoint([F(1, 2), -1])) == "XPoint([Fraction(1, 2), Fraction(-1, 1)])"


def test_eval_at_x():
    W = 6
    x = XPoint([F(1, 2)])
    # t_m = (2/m) sum x_i^m, so Q_(1) = t_1 evaluates to 2 x
    assert eval_at_x(q_lambda(StrictPartition([1]), W), x) == 1
    # length above the number of variables kills the evaluation
    assert eval_at_x(q_lambda(StrictPartition([2, 1]), W), XPoint([F(1, 3)])) == 0
    assert eval_at_x(q_lambda(StrictPartition([3, 2, 1]), W), XPoint([F(1), F(1, 2)])) == 0


def t_infinity(m):
    """The principal specialization t_infinity: t_1 = 1, t_m = 0 for m > 1."""
    return F(m == 1)


def eval_at_tinfty(a):
    """An OddSeries at t = t_infinity, by `substitute`."""
    return a.substitute(t_infinity)


def _point_sums(x):
    """p_m at the points of x, as the int pair _miwa_reader takes."""
    return lambda m: sum(v ** m for v in x.values).as_integer_ratio()


def test_miwa_table_reading_matches_eval_at_x():
    # every strict lambda to 16, and the s_mu to 8, at 1, 2 and 3 points
    # with a negative one; the last set has every odd power sum 0
    W = 16
    points = [
        XPoint([F(-3, 2)]),
        XPoint([F(2, 3), F(-5, 4)]),
        XPoint([F(3), F(-1, 6), F(2, 5)]),
        XPoint([F(2, 3), F(-2, 3)]),
    ]
    series = [q_lambda(lam, W) for lam in enumerate_strict(W)]
    series += [schur_s(mu, W) for mu in enumerate_partitions(8)]
    for x in points:
        read = _miwa_reader(_point_sums(x), W)
        for f in series:
            v, d = read(f)
            assert type(v) is int and F(v, d) == eval_at_x(f, x), (x, f)
    # t_infinity is p_1 = 1/2 and every other p_m = 0, as tau_hyper_tinfty reads it
    read = _miwa_reader(lambda m: (int(m == 1), 2), W)
    for f in series:
        assert F(*read(f)) == eval_at_tinfty(f), f


def test_eval_at_tinfty_hook_product():
    # at t = (1, 0, 0, ...) the evaluation is 1 / hook_star
    for lam in enumerate_strict(7):
        assert eval_at_tinfty(q_lambda(lam, 8)) * hook_star(lam) == 1


def test_delta():
    assert delta(XPoint([F(2)])) == 1
    x = XPoint([F(1, 2), F(1, 3)])
    assert delta(x) == (F(1, 2) - F(1, 3)) / (F(1, 2) + F(1, 3))


def test_scalar_product_orthogonality():
    W = 5
    lams = [lam for lam in enumerate_strict(W)]
    qs = {lam: q_lambda(lam, W) for lam in lams}
    for a in lams:
        for b in lams:
            want = F(2 ** a.length) if a == b else F(0)
            assert scalar_product(qs[a], qs[b]) == want


def test_q_expand_frozen_and_round_trip():
    W = 6
    t3 = OddSeries.variable(W, 3)
    got = q_expand(t3)
    assert got == {
        StrictPartition([3]): F(1, 3),
        StrictPartition([2, 1]): F(-1, 3),
    }
    # random combination round-trips through the expansion
    rng = random.Random(9)
    f = OddSeries(W)
    want = {}
    for lam in enumerate_strict(W):
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            want[lam] = c
            f = f + q_lambda(lam, W) * c
    assert q_expand(f) == want
    assert q_expand(OddSeries(W)) == {}


def _fraction_scalar_product(f, g):
    """The pairing with one Fraction operation per monomial, read through the
    `terms` view by tuple monomial: the reference scalar_product, which reads
    keys and numerators, is held to."""
    total = Fraction(0)
    for mono, a in f.terms.items():
        b = g.terms.get(mono)
        if not b:
            continue
        pairing = Fraction(1)
        for m, e in mono:
            pairing *= Fraction(2, m) ** e * factorial(e)
        total += a * b * pairing
    return total


def _exp_kernels(W):
    """exp(sum (m/2) v_m t_m) at negative, zero and mixed times."""
    rng = random.Random(17)
    out = []
    for _ in range(6):
        times = {m: F(rng.randint(-4, 4), rng.randint(1, 5)) for m in range(1, W + 1, 2)}
        terms = {((m, 1),): F(m, 2) * v for m, v in times.items() if v}
        out.append(OddSeries(W, terms).exp())
    out.append(OddSeries.constant(W))
    return out


def test_scalar_product_matches_fraction_pairing():
    W = 8
    qs = [q_lambda(lam, W) for lam in enumerate_strict(W)]
    for a in qs:
        for b in qs:
            assert scalar_product(a, b) == _fraction_scalar_product(a, b)
    W = 10
    kernels = _exp_kernels(W)
    qs = [q_lambda(lam, W) for lam in enumerate_strict(W)]
    for f in kernels:
        for g in kernels + qs:
            got = scalar_product(f, g)
            assert type(got) is Fraction and got == _fraction_scalar_product(f, g)
    assert scalar_product(OddSeries(W), kernels[0]) == 0


def test_q_expand_matches_fraction_pairing():
    """Each c_lambda against the Fraction pairing, on kernels with times at
    m = 1, 3, 5, one of them zero."""
    W = 14
    rng = random.Random(41)
    lams = enumerate_strict(W)
    for zero in (1, 3, 5):
        times = {m: F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for m in (1, 3, 5)}
        times[zero] = 0
        f = OddSeries(W, {((m, 1),): F(m, 2) * v for m, v in times.items() if v}).exp()
        got = q_expand(f)
        assert set(got) <= set(lams)
        for lam in lams:
            want = _fraction_scalar_product(q_lambda(lam, W), f) / 2 ** lam.length
            assert (lam in got) == (want != 0) and got.get(lam, 0) == want, (zero, lam)
            assert lam not in got or type(got[lam]) is Fraction


def test_evaluation_matches_fraction_loop():
    W = 12
    series = [q_lambda(lam, W) for lam in enumerate_strict(W)] + _exp_kernels(W)
    points = [
        XPoint([F(1, 2)]),
        XPoint([F(-2, 3), F(5, 4)]),
        XPoint([F(3), F(-1, 6), F(2, 5)]),
        # every odd power sum is 0: each time is zero, only the constant counts
        XPoint([F(2, 3), F(-2, 3)]),
    ]
    for f in series:
        for x in points:
            want = substitute_terms(f, lambda m: F(2, m) * sum(v ** m for v in x.values), F(1))
            assert eval_at_x(f, x) == want
        assert eval_at_tinfty(f) == substitute_terms(f, lambda m: F(m == 1), F(1))
    assert type(eval_at_x(OddSeries(W), points[0])) is Fraction
