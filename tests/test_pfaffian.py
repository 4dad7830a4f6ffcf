"""Pfaffians over generic rings and the two Pfaffian representations of the
tau series: the two-alphabet matrix identity and the x-point matrix."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bkpq
from bkpq.gseries import OddSeries
from bkpq.partitions import StrictPartition, enumerate_strict
from bkpq.pfaffian import (
    SkewMatrix,
    build_R,
    check_two_alphabet_pfaffian,
    check_xpoint_pfaffian,
    det_fraction_free,
    perfect_matchings,
    pfaffian,
    tau_at_xpoint,
)
from bkpq.qschur import XPoint, delta, eval_at_x, q_lambda
from bkpq.rspec import Cutoff, Ones, RationalPS, SymmetricRational

F = Fraction


def rand_skew(rng, dim):
    upper = {
        (i, j): F(rng.randint(-9, 9), rng.randint(1, 5))
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    return SkewMatrix(dim, upper)


def to_rows(A):
    return [[A.entry(i, j) for j in range(A.dim)] for i in range(A.dim)]


def test_skew_matrix_entry():
    A = SkewMatrix(2, {(0, 1): F(5)})
    assert A.entry(0, 1) == 5
    assert A.entry(1, 0) == -5
    assert A.entry(1, 1) == 0


def test_pfaffian_small_formulas():
    a, b, c, d, e, f = (F(k) for k in (2, 3, 5, 7, 11, 13))
    A2 = SkewMatrix(2, {(0, 1): a})
    assert pfaffian(A2) == a
    A4 = SkewMatrix(4, {(0, 1): a, (0, 2): b, (0, 3): c, (1, 2): d, (1, 3): e, (2, 3): f})
    assert pfaffian(A4) == a * f - b * e + c * d


def test_pfaffian_odd_dimension_rejected():
    with pytest.raises(ValueError):
        pfaffian(SkewMatrix(3, {(0, 1): F(1)}))


def test_pfaffian_empty_matrix():
    assert pfaffian(SkewMatrix(0, {})) == 1


def test_pfaffian_squared_is_determinant():
    rng = random.Random(41)
    for dim in (2, 4, 6):
        for _ in range(5):
            A = rand_skew(rng, dim)
            assert pfaffian(A) ** 2 == det_fraction_free(to_rows(A))


def test_perfect_matchings_agree_with_recursion():
    rng = random.Random(13)
    for dim in (2, 4, 6):
        ms = list(perfect_matchings(tuple(range(dim))))
        # double factorial count
        count = 1
        for k in range(dim - 1, 0, -2):
            count *= k
        assert len(ms) == count
        A = rand_skew(rng, dim)
        total = F(0)
        for sign, pairs in ms:
            term = F(sign)
            for (i, j) in pairs:
                term *= A.entry(i, j)
            total += term
        assert total == pfaffian(A)


def test_pfaffian_over_series_ring():
    # entries from a commutative ring without division
    W = 4
    t1 = OddSeries.variable(W, 1)
    t3 = OddSeries.variable(W, 3)
    one = OddSeries.constant(W, 1)
    A = SkewMatrix(
        4,
        {
            (0, 1): t1,
            (0, 2): t3,
            (0, 3): one,
            (1, 2): one,
            (1, 3): t1 * t1,
            (2, 3): t3,
        },
        zero=OddSeries(W),
    )
    pf = pfaffian(A, one=one)
    want = t1 * t3 - t3 * (t1 * t1) + one * one
    assert (pf - want).is_zero()


def test_two_alphabet_pfaffian_identity():
    assert check_two_alphabet_pfaffian(Ones(), 1, 8).passed
    assert check_two_alphabet_pfaffian(Cutoff(2), 2, 6).passed
    assert check_two_alphabet_pfaffian(RationalPS([1], [2]), 2, 6).passed
    assert check_two_alphabet_pfaffian(SymmetricRational([F(1, 3)], []), 1, 6).passed


# counts the term pairs of every MultiPoly product in one two-alphabet check
PAIR_COUNT = """
from bkpq import pfaffian, rspec
pairs = 0
mul = pfaffian.MultiPoly.__mul__
def counting(a, b):
    global pairs
    if isinstance(b, pfaffian.MultiPoly):
        pairs += len(a.terms) * len(b.terms)
    return mul(a, b)
pfaffian.MultiPoly.__mul__ = counting
assert pfaffian.check_two_alphabet_pfaffian(rspec.Cutoff(3), 3, 8).passed
print(pairs)
"""


def test_two_alphabet_work_is_hash_seed_independent():
    # the clearing factors are multiplied in a fixed order, so the work does
    # not follow the iteration order of a set of string-keyed tuples
    src = os.path.dirname(os.path.dirname(os.path.abspath(bkpq.__file__)))
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", PAIR_COUNT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        counts.append(int(run.stdout))
    assert counts[0] == counts[1] > 0


def test_tau_at_xpoint_matches_direct_sum():
    W = 6
    spec = RationalPS([1], [2])
    x = XPoint([F(1, 2), F(1, 3)])
    direct = OddSeries.constant(W, 1)
    for lam in enumerate_strict(W):
        if lam.length > 2:
            continue
        c = eval_at_x(q_lambda(lam, W), x) * spec.r_lambda(lam) * F(1, 2 ** lam.length)
        if c:
            direct = direct + q_lambda(lam, W) * c
    assert (tau_at_xpoint(spec, x, W) - direct).is_zero()


def test_two_point_expansion():
    # (x_i - x_k)/(x_i + x_k) tau(t(x_i,x_k), t*) expands as an
    # antisymmetrized double sum over strict two-part (or one-part) shapes
    W = 6
    xi, xk = F(1, 2), F(-1, 3)
    pref = (xi - xk) / (xi + xk)
    for spec in (Ones(), Cutoff(2), RationalPS([1], [2])):
        lhs = tau_at_xpoint(spec, XPoint([xi, xk]), W) * pref
        rhs = OddSeries.constant(W, pref)
        for nk in range(1, W + 1):
            for ni in range(0, nk):
                if nk + ni > W:
                    continue
                anti = xi ** nk * xk ** ni - xi ** ni * xk ** nk
                lam = StrictPartition([nk] if ni == 0 else [nk, ni])
                rhs = rhs + q_lambda(lam, W) * (anti * spec.r_lambda(lam))
        assert (lhs - rhs).is_zero()


def test_build_r_constant_terms():
    W = 4
    spec = Ones()
    x = XPoint([F(1, 2), F(1, 3)])
    R = build_R(x, spec, W)
    assert R.dim == 2
    c = R.entry(0, 1).constant_term()
    assert c == (F(1, 2) - F(1, 3)) / (F(1, 2) + F(1, 3))


def test_xpoint_pfaffian_representation():
    W = 6
    points = {
        1: XPoint([F(1, 2)]),
        2: XPoint([F(1, 2), F(1, 3)]),
        3: XPoint([F(2), F(-1, 3), F(1, 5)]),
    }
    for spec in (Ones(), Cutoff(2), RationalPS([1], [2])):
        for n, x in points.items():
            rep = check_xpoint_pfaffian(spec, x, W)
            assert rep.passed, rep.to_json()


def test_xpoint_pfaffian_explicit():
    # Pf(R) equals Delta(x) times the restricted tau series
    W = 6
    spec = Cutoff(3)
    x = XPoint([F(1, 2), F(1, 3)])
    R = build_R(x, spec, W)
    pf = pfaffian(R, one=OddSeries.constant(W, 1))
    want = tau_at_xpoint(spec, x, W) * delta(x)
    assert (pf - want).is_zero()
