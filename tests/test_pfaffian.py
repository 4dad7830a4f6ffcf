"""Pfaffians over generic rings and the two Pfaffian representations of the
tau series: the two-alphabet matrix identity and the x-point matrix."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bkpq
from bkpq import pfaffian as pfaffian_module
from bkpq import tau as tau_module
from bkpq.cli import _random_xpoint
from bkpq.gseries import OddSeries
from bkpq.partitions import StrictPartition, enumerate_strict
from bkpq.pfaffian import (
    MultiPoly,
    SkewMatrix,
    _vandermonde_numerator,
    build_R,
    check_two_alphabet_pfaffian,
    check_xpoint_pfaffian,
    det_fraction_free,
    perfect_matchings,
    pfaffian,
    tau_as_multipoly,
    tau_at_xpoint,
    two_alphabet_floor,
)
from bkpq.qschur import XPoint, delta, eval_at_x, q_lambda
from bkpq.rspec import Cutoff, Ones, RationalPS, SymmetricRational, TParam
from bkpq.tau import tau_terms
from test_gseries_oracle import substitute_terms
from test_ops import _perturbed_tau_terms
from test_tau import ORACLE_SPECS

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


def test_multipoly_variable_refuses_an_index_it_lacks():
    for index in (2, -1):
        with pytest.raises(ValueError, match=r"^no variable x_%d among x_0\.\.x_1$" % index):
            MultiPoly.variable(2, 4, index)


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


def test_owed_factors_agree_with_matchings_and_division():
    # each matching pays the owed factor of every pair it leaves unmatched,
    # and the whole is Pfaff of the divided matrix times every owed factor
    rng = random.Random(29)
    for dim in (0, 2, 4, 6, 8):
        A = rand_skew(rng, dim)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for _ in range(4):
            owed = {
                p: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
                for p in pairs
                if rng.random() < 0.5
            }
            total = F(0)
            for sign, matching in perfect_matchings(tuple(range(dim))):
                term = F(sign)
                for (i, j) in matching:
                    term *= A.entry(i, j)
                for p, factor in owed.items():
                    if p not in matching:
                        term *= factor
                total += term
            got = pfaffian(A, owed=owed)
            assert got == total
            divided = SkewMatrix(
                dim, {p: v / owed.get(p, 1) for p, v in A.upper.items()}
            )
            product = F(1)
            for factor in owed.values():
                product *= factor
            assert got == pfaffian(divided) * product


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


def test_two_alphabet_floor_is_n_n_minus_1_plus_2():
    assert [two_alphabet_floor(N) for N in (1, 2, 3, 4)] == [2, 4, 8, 14]


def test_two_alphabet_pfaffian_sees_r_from_degree_n_n_minus_1_plus_2(monkeypatch):
    # every coefficient of tau times 1001/1000: below N(N-1)+2 both sides
    # are the r-free leading term, so the check cannot see it
    real = pfaffian_module.tau_terms

    def corrupted(*args, **kwargs):
        return ((n * 1001, d * 1000, q) for n, d, q in real(*args, **kwargs))

    monkeypatch.setattr(pfaffian_module, "tau_terms", corrupted)
    # the failing reports, witness included, as earlier kernels gave them: the
    # tuple-keyed MultiPoly for N <= 3 and the loop over matchings for N = 4
    witnesses = {
        1: ("(1, 1)", 2),
        2: ("(0, 2, 0, 2)", 4),
        3: ("(0, 1, 3, 0, 1, 3)", 8),
        4: ("(0, 1, 2, 4, 0, 1, 2, 4)", 14),
    }
    for N in (1, 2, 3, 4):
        low = two_alphabet_floor(N)
        spec = RationalPS([F(1, 2), 3], [F(5, 2)])
        assert check_two_alphabet_pfaffian(spec, N, low - 1).passed, N
        monomial, degree = witnesses[N]
        assert check_two_alphabet_pfaffian(spec, N, low).to_json() == {
            "name": "pfaffian-two-alphabet",
            "params": {"r": "RationalPS(a=[1/2,3], b=[5/2])", "N": N, "degree": degree},
            "pass": False,
            "witness": {"monomial": monomial, "lhs": "6/5", "rhs": "3003/2500"},
        }, N


CUT_SIZES = ((1, 10), (2, 10), (3, 12), (4, 14))


def test_two_alphabet_check_reads_tau_to_degree_d_minus_n_n_minus_1(monkeypatch):
    # V(x)V(y) has degree N(N-1), so r_(n) x 1001/1000 reaches the compared
    # window iff 2n <= D - N(N-1); past it the window is blind, and a
    # failure's witness is the one the full-degree route gives
    spec = SymmetricRational([F(1, 3)], [F(1, 5)])
    full = pfaffian_module.tau_as_multipoly
    for N, D in CUT_SIZES:
        for n in range(1, D // 2 + 1):
            monkeypatch.setattr(pfaffian_module, "tau_terms", _perturbed_tau_terms([n], F(1001, 1000)))
            rep = check_two_alphabet_pfaffian(spec, N, D)
            assert rep.passed == (2 * n > D - N * (N - 1)), (N, D, n)
            if not rep.passed:
                with monkeypatch.context() as m:
                    m.setattr(pfaffian_module, "tau_as_multipoly", lambda s, N, D, _: full(s, N, D))
                    assert check_two_alphabet_pfaffian(spec, N, D).to_json() == rep.to_json()


def test_tau_as_multipoly_cut_keeps_the_product_with_vandermonde():
    for make in (lambda: SymmetricRational([F(1, 3)], [F(1, 5)]), Ones):
        spec = make()
        for N, D in CUT_SIZES:
            nvars = 2 * N
            vv = _vandermonde_numerator(N, nvars, D, 0) * _vandermonde_numerator(N, nvars, D, N)
            cut, full = tau_as_multipoly(spec, N, D, D - N * (N - 1)), tau_as_multipoly(spec, N, D)
            assert cut * vv == full * vv, (spec, N, D)
            assert (cut == full) == (N == 1), (spec, N, D)
    # below 0 tau reads as 1
    assert tau_as_multipoly(Ones(), 2, 6, -1) == MultiPoly.constant(4, 6)


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
    # pfaffian pays the owed denominators in row order, so the work does not
    # follow the iteration order of a set of string-keyed tuples
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


def _direct_xpoint_sum(spec, x, W):
    """The per-lambda route to tau_at_xpoint: one eval_at_x and one
    OddSeries sum per lambda, r_lambda read directly."""
    direct = OddSeries.constant(W, 1)
    for lam in enumerate_strict(W):
        if lam.length > len(x):
            continue
        c = eval_at_x(q_lambda(lam, W), x) * spec.r_lambda(lam) * F(1, 2 ** lam.length)
        if c:
            direct = direct + q_lambda(lam, W) * c
    return direct


def test_tau_at_xpoint_matches_direct_sum():
    points = [
        XPoint([F(-1, 2)]),
        XPoint([F(1, 2), F(-1, 3)]),
        XPoint([F(2), F(-1, 3), F(1, 5)]),
    ]
    for make in ORACLE_SPECS + [lambda: Cutoff(6)]:
        spec = make()
        # the TParam supplies e^{T_n} up to n = 8
        for W in range(9 if isinstance(spec, TParam) else 11):
            for x in points:
                assert tau_at_xpoint(spec, x, W) == _direct_xpoint_sum(spec, x, W), (spec, W, x)


def _substitute_route(spec, N, cutoff):
    """The per-lambda substitute route to tau_as_multipoly: each Q_lambda
    mapped into both alphabets, t_m = (2/m) p_m as MultiPolys, one Fraction
    per term (`substitute_terms`)."""
    nvars = 2 * N
    one, zero = MultiPoly.constant(nvars, cutoff), MultiPoly(nvars, cutoff)

    def alphabet(offset):
        return lambda m: F(2, m) * sum(
            (MultiPoly.variable(nvars, cutoff, offset + k, m) for k in range(N)), zero
        )

    t_x, t_y = alphabet(0), alphabet(N)
    acc = one
    for num, den, q in tau_terms(spec, cutoff // 2, max_length=N):
        acc = acc + substitute_terms(q, t_x, one) * substitute_terms(q, t_y, one) * F(num, den)
    return acc


def test_tau_as_multipoly_matches_substitute_route():
    for make in ORACLE_SPECS:
        spec = make()
        for N, cutoffs in ((1, range(11)), (2, (2, 7, 10)), (3, (5, 8))):
            for D in cutoffs:
                assert tau_as_multipoly(spec, N, D) == _substitute_route(spec, N, D), (spec, N, D)


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


def test_vanishing_pair_is_named_by_its_indices_in_x():
    # the pair's own indices would be "x_1 + x_2" in both cases
    with pytest.raises(ZeroDivisionError, match=r"^x_1 \+ x_3 vanishes$"):
        build_R(XPoint([1, 2, -1]), Ones(), 4)
    with pytest.raises(ZeroDivisionError, match=r"^x_2 \+ x_4 vanishes$"):
        check_xpoint_pfaffian(Ones(), XPoint([3, 1, 2, -1]), 4)


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


def test_xpoint_check_is_blind_to_r_at_two_points_and_in_windows_at_three(monkeypatch):
    # r_lambda x 1001/1000 in tau_terms, which both sides read, at the
    # points `verify` draws for seeds 0 and 3: at N=2, as `verify` runs it,
    # the check passes for each of the 42 lambda; at N=3 for nine, the one
    # with more parts than points and eight of length <= 2 and weight >= 8
    spec, W = SymmetricRational([F(1, 3)], []), 10
    blind = {(8,), (9,), (8, 1), (10,), (9, 1), (8, 2), (7, 3), (6, 4), (4, 3, 2, 1)}
    for seed in (0, 3):
        for N in (2, 3):
            x = _random_xpoint(random.Random(seed), N)
            for lam in enumerate_strict(W):
                perturbed = _perturbed_tau_terms(lam.parts, F(1001, 1000))
                monkeypatch.setattr(tau_module, "tau_terms", perturbed)
                rep = check_xpoint_pfaffian(spec, x, W)
                assert rep.passed == (N == 2 or lam.parts in blind), (seed, N, lam)


def test_xpoint_pfaffian_explicit():
    # Pf(R) equals Delta(x) times the restricted tau series
    W = 6
    spec = Cutoff(3)
    x = XPoint([F(1, 2), F(1, 3)])
    R = build_R(x, spec, W)
    pf = pfaffian(R, one=OddSeries.constant(W, 1))
    want = tau_at_xpoint(spec, x, W) * delta(x)
    assert (pf - want).is_zero()
