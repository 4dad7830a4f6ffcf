"""Hypergeometric tau-function series: Cauchy kernel, square identity,
invariances, hypergeometric reductions, and the deformed scalar product."""

import hashlib
import json
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpq.gseries import BiSeries, OddSeries
from bkpq.partitions import StrictPartition, enumerate_partitions, enumerate_strict
from bkpq.ops import check_linear_eq_N1, tau_x_series
from bkpq.qschur import (
    XPoint,
    _dual,
    _pair,
    eval_at_x,
    q_expand,
    q_lambda,
    scalar_product,
    schur_s,
)
from bkpq.rspec import (
    Cutoff,
    Ones,
    Product,
    RationalPS,
    RValueError,
    SymmetricRational,
    Table,
    TParam,
    content_product_kp,
    hook_star,
    parse_rspec,
)
from bkpq import gseries as gseries_module
from bkpq import tau as tau_module
from bkpq.tau import (
    _exp_kernel,
    check_cauchy,
    check_square,
    check_symmetry_scaling,
    check_tau_scalar,
    compare_series,
    hyper_one_var,
    scalar_product_r_by_weight,
    tau_bkp,
    tau_hyper_tinfty,
    tau_kp,
    tau_terms,
    vacuum_kernel,
)
from test_gseries_oracle import RefSeries, _weight, substitute_terms
from test_ops import _perturbed_tau_terms, one_row_route, tau_single_x_coefficients
from test_qschur import t_infinity
from test_rspec import (
    R_LAMBDA_SPECS,
    RUNS_OUT,
    AskedTParam,
    pochhammer,
    pochhammer_lambda,
    prefix_pair,
)

F = Fraction

SPECS = [
    Ones(),
    Cutoff(2),
    Cutoff(3),
    RationalPS([1], [2]),
    SymmetricRational([F(1, 3)], []),
    TParam({n: F(n * n + 1) for n in range(1, 9)}),
]


def test_tau_bkp_ones_is_vacuum_kernel():
    W = 6
    assert tau_bkp(Ones(), W, W) == vacuum_kernel(W, W)
    t = tau_bkp(Ones(), W, W)
    assert t.coefficient(((1, 1),), ((1, 1),)) == F(1, 2)
    assert t.coefficient(((3, 1),), ((3, 1),)) == F(3, 2)


def test_tau_bkp_cutoff1_is_one():
    W = 6
    assert tau_bkp(Cutoff(1), W, W) == BiSeries.constant(W, W)


def test_cauchy_identity():
    rep = check_cauchy(8)
    assert rep.passed


def test_cauchy_reads_the_vacuum_it_is_given():
    vacuum = Ones()
    assert check_cauchy(6, vacuum).passed
    assert tau_bkp(vacuum, 6, 6) is tau_bkp(vacuum, 6, 6) == vacuum_kernel(6, 6)
    # the identity is the vacuum's: another spec would read as a failure
    for spec in (Cutoff(3), SymmetricRational([F(1, 3)], [])):
        with pytest.raises(ValueError, match="reads an Ones spec"):
            check_cauchy(6, spec)


def test_cauchy_cross_term_cancellation():
    # coefficient of t_1^3 t*_3 vanishes only through cancellation
    # between different partitions
    W = 6
    mono_t = ((1, 3),)
    mono_s = ((3, 1),)
    assert vacuum_kernel(W, W).coefficient(mono_t, mono_s) == 0
    contribs = []
    for lam in enumerate_strict(3):
        if lam.weight != 3:
            continue
        q = q_lambda(lam, W)
        c = q.coefficient(mono_t) * q.coefficient(mono_s) * F(1, 2 ** lam.length)
        contribs.append(c)
    assert any(contribs)
    assert sum(contribs) == 0


def test_square_identity():
    for spec in SPECS:
        rep = check_square(spec, 6)
        assert rep.passed, rep.to_json()


def _fraction_diagonal_sum(terms, W, Wstar):
    """Reference for tau._diagonal_sum: one Fraction product and sum per pair."""
    out = {((), ()): Fraction(1)}
    for n, d, f in terms:
        c = Fraction(n, d)
        for mt, ct in f.terms.items():
            cct = c * ct
            for ms, cs in f.terms.items():
                key = (mt, ms)
                out[key] = out.get(key, 0) + cct * cs
    return BiSeries(W, Wstar, out)


def _kp_terms(spec, bound):
    for mu in enumerate_partitions(bound):
        n, d = content_product_kp(spec, mu)
        if n:
            yield n, d, schur_s(mu, bound)


ORACLE_SPECS = [
    Ones,
    lambda: Cutoff(2),
    lambda: Cutoff(3),
    lambda: SymmetricRational([F(1, 3)], [F(1, 5)]),
    lambda: RationalPS([F(3, 4), F(5, 2)], [F(2, 3)]),
    lambda: TParam({n: F(n * n + 1, n + 2) for n in range(1, 9)}),
    # r(3) = 0 ends every prefix before r(5) is asked of the table
    lambda: Table([1, F(1, 2), 0, 3]),
]


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=5)
POSITIVE = st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5)
# b of RationalPS may not be a nonpositive integer, beta not a half-integer
PS_B = SMALL.filter(lambda b: b.denominator != 1 or b > 0)
SYM_BETA = SMALL.filter(lambda b: (2 * b).denominator != 1)
MAX_FUZZ_WEIGHT = 8


def _base_specs(n):
    """Random specs of every family with r tabulated up to r(n)."""
    return st.one_of(
        st.lists(SMALL, min_size=n, max_size=n).map(Table),
        st.lists(POSITIVE, min_size=n, max_size=n).map(lambda u: TParam(dict(enumerate(u, 1)))),
        st.builds(RationalPS, st.lists(SMALL, max_size=2), st.lists(PS_B, max_size=2)),
        st.builds(SymmetricRational, st.lists(SMALL, max_size=2), st.lists(SYM_BETA, max_size=2)),
    )


BASE_SPECS = _base_specs(MAX_FUZZ_WEIGHT)
FUZZ_SPECS = st.one_of(BASE_SPECS, st.builds(Product, BASE_SPECS, BASE_SPECS))


def _fuzz_times(W):
    """Rational times at odd indices <= W, zeros among them, not all zero."""
    return st.dictionaries(
        st.sampled_from(range(1, W + 1, 2)), st.one_of(st.just(F(0)), SMALL), min_size=1
    ).filter(lambda d: any(d.values()))


# -- the strict table, held to the per-lambda walks it replaced ---------------


def _walked_tau_terms(spec, W, max_length=None):
    """tau.tau_terms as it was before it walked `qschur._strict_table`: one
    `enumerate_strict` list and one q_lambda read per lambda."""
    for lam in enumerate_strict(W):
        n, d = spec.r_lambda_pair(lam)
        if n and (max_length is None or lam.length <= max_length):
            yield n, d << lam.length, q_lambda(lam, W)


def _per_lambda_pairing(f, g, spec):
    """tau.scalar_product_r_by_weight as it was before it walked the weight
    blocks of `qschur._strict_table`: per lambda of `enumerate_strict` one
    q_lambda read at each kernel's cap, one `_pair` against each kernel's
    `_dual`, and the int pair a b n / (d_a d_b d 2^l) summed per weight."""
    out = {0: f.constant_term() * g.constant_term()}
    Wf, Wg = f.truncation_weight, g.truncation_weight
    dual_f, dual_g = _dual(f), _dual(g)
    by_weight = {}
    for lam in enumerate_strict(min(Wf, Wg)):
        n, d = spec.r_lambda_pair(lam)
        if not n:
            continue
        a, da = _pair(dual_f, q_lambda(lam, Wf))
        if not a:
            continue
        b, db = _pair(dual_g, q_lambda(lam, Wg))
        if b:
            by_weight.setdefault(lam.weight, []).append((a * b * n, (da * db * d) << lam.length))
    for w, terms in by_weight.items():
        L = lcm(*(d for _, d in terms))
        out[w] = Fraction(sum(n * (L // d) for n, d in terms), L)
    return out


# The table routes are held to these on every spec of R_LAMBDA_SPECS: the
# shipped specs, the four spec-scan families (R_LAMBDA_SPECS[:4], shaped as
# spec-scan draws them at W = 14), cutoff:M=3, whose r_lambda = 0 skips every
# lambda with a part >= 3, and specs with a zero inside r.  The kernels are
# check_tau_scalar's; the second pair leaves the t kernel only the weights
# divisible by 3, so its other weight blocks are empty.
TABLE_KERNELS = [
    ({1: F(1, 2), 3: F(-2, 3), 5: F(3, 4), 9: F(1, 3)}, {1: F(-1, 3), 3: F(2, 5), 7: 2}),
    ({3: F(2, 3), 9: F(-1, 2)}, {1: F(-1, 3), 5: 2}),
]


@pytest.mark.parametrize("Wf, Wg", [(14, 14), (14, 9), (9, 14), (6, 9), (9, 6), (6, 6)])
@pytest.mark.parametrize("text", R_LAMBDA_SPECS)
def test_r_pairing_matches_the_per_lambda_route(text, Wf, Wg):
    # with unequal caps each kernel reads the numbering of its own cap
    weights = set()
    for t, tstar in TABLE_KERNELS:
        f = _exp_kernel({m: v for m, v in t.items() if m <= Wf}, Wf)
        g = _exp_kernel({m: v for m, v in tstar.items() if m <= Wg}, Wg)
        got = scalar_product_r_by_weight(f, g, parse_rspec(text))
        want = _per_lambda_pairing(f, g, parse_rspec(text))
        assert got == want, (t, tstar)
        assert all(type(v) is Fraction for v in got.values())
        weights |= set(want)
    # some lambda is paired unless every r_lambda is 0 (ratps with a = 0)
    assert weights > {0} or not list(tau_terms(parse_rspec(text), min(Wf, Wg)))


@pytest.mark.parametrize("max_length", [None, 1, 2, 3])
@pytest.mark.parametrize("text", R_LAMBDA_SPECS)
def test_tau_terms_match_the_enumerate_strict_walk(text, max_length):
    for W in (14, 9, 0):
        got = list(tau_terms(parse_rspec(text), W, max_length))
        want = list(_walked_tau_terms(parse_rspec(text), W, max_length))
        assert [(n, d) for n, d, _ in got] == [(n, d) for n, d, _ in want], W
        assert all(p is q for (_, _, p), (_, _, q) in zip(got, want)), W


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_tau_bkp_and_scalar_route_on_random_specs(data):
    spec = data.draw(FUZZ_SPECS)
    W = data.draw(st.integers(1, MAX_FUZZ_WEIGHT))
    Wstar = data.draw(st.integers(1, MAX_FUZZ_WEIGHT))
    bound = min(W, Wstar)
    got = tau_bkp(spec, W, Wstar)
    assert got == _fraction_diagonal_sum(tau_terms(spec, bound), W, Wstar), spec
    # the s_mu blocks take the same triangle; a zero r drops some of a block's mu
    got = tau_kp(spec, W, Wstar)
    assert got == _fraction_diagonal_sum(_kp_terms(spec, bound), W, Wstar), spec
    t, tstar = data.draw(_fuzz_times(W)), data.draw(_fuzz_times(W))
    assert check_tau_scalar(spec, W, t, tstar).passed, (spec, t, tstar)
    # the one-point series reads the one-row terms of tau_terms
    n_max = data.draw(st.integers(0, MAX_FUZZ_WEIGHT + 2))
    assert tau_x_series(spec, n_max, W) == one_row_route(spec, n_max, W), (spec, n_max)


def _fraction_pairing_by_weight(f, g, spec):
    """Reference for tau.scalar_product_r_by_weight: both sides expanded over
    the Q_lambda (q_expand) and each partition's term summed in Fractions."""
    out = {0: f.constant_term() * g.constant_term()}
    cf = q_expand(f)
    cg = q_expand(g)
    for lam, a in cf.items():
        b = cg.get(lam)
        if b:
            w = lam.weight
            out[w] = out.get(w, 0) + a * b * Fraction(2) ** lam.length * spec.r_lambda(lam)
    return out


def _assert_pairing_matches_oracle(f, g, spec):
    got = scalar_product_r_by_weight(f, g, spec)
    want = _fraction_pairing_by_weight(f, g, spec)
    # a weight with no nonzero term may be missing from either side
    for w in set(got) | set(want):
        assert got.get(w, 0) == want.get(w, 0), (spec, w)
    assert all(type(v) is Fraction for v in got.values())


MAX_PAIRING_WEIGHT = 10
PAIRING_SPECS = st.one_of(
    _base_specs(MAX_PAIRING_WEIGHT),
    # zero r_lambda: skipped by the integer pairing, multiplied by 0 in the oracle
    st.integers(1, 4).map(Cutoff),
    st.builds(Product, st.integers(2, 4).map(Cutoff), _base_specs(MAX_PAIRING_WEIGHT)),
    st.builds(Product, _base_specs(MAX_PAIRING_WEIGHT), _base_specs(MAX_PAIRING_WEIGHT)),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_r_pairing_matches_fraction_pairing(data):
    spec = data.draw(PAIRING_SPECS)
    # the kernels of check_tau_scalar, each at its own truncation
    Wf = data.draw(st.integers(1, MAX_PAIRING_WEIGHT))
    Wg = data.draw(st.integers(1, MAX_PAIRING_WEIGHT))
    f = _exp_kernel(data.draw(_fuzz_times(Wf)), Wf)
    g = _exp_kernel(data.draw(_fuzz_times(Wg)), Wg)
    _assert_pairing_matches_oracle(f, g, spec)


@pytest.mark.parametrize("text", R_LAMBDA_SPECS)
def test_tau_terms_are_2_to_the_minus_l_r_lambda(text):
    spec, oracle = parse_rspec(text), parse_rspec(text)
    want = []
    for lam in enumerate_strict(14):
        n, d = prefix_pair(oracle, lam)
        if n:
            want.append((F(n, d << lam.length), q_lambda(lam, 14)))
    assert [(F(n, d), q) for n, d, q in tau_terms(spec, 14)] == want


def test_tau_terms_of_a_tparam_that_runs_out_raise_where_the_prefix_route_does():
    spec, oracle = AskedTParam(RUNS_OUT), AskedTParam(RUNS_OUT)
    got, want = [], []
    with pytest.raises(RValueError) as raised:
        for n, d, _ in tau_terms(spec, 14):
            got.append(F(n, d))
    with pytest.raises(RValueError) as expected:
        for lam in enumerate_strict(14):
            n, d = prefix_pair(oracle, lam)
            want.append(F(n, d << lam.length))
    assert str(raised.value) == str(expected.value)
    assert got == want and spec.asked == oracle.asked


@pytest.mark.parametrize("W, Wstar", [(8, 8), (8, 5), (5, 8), (13, 9), (14, 14)])
def test_integer_tau_sum_matches_fraction_sum(W, Wstar):
    bound = min(W, Wstar)
    # at 14 the weight blocks hold up to 22 x 22 monomials; two specs keep
    # the Fraction oracle quick.  Past 8 the TParam, ORACLE_SPECS[5], has no
    # e^{T_n} left.
    makes = ORACLE_SPECS if bound <= 8 else ORACLE_SPECS[:5] + ORACLE_SPECS[6:]
    for make in makes if W < 14 else ORACLE_SPECS[3:5]:
        for got, want in [
            (tau_bkp(make(), W, Wstar), _fraction_diagonal_sum(tau_terms(make(), bound), W, Wstar)),
            (tau_kp(make(), W, Wstar), _fraction_diagonal_sum(_kp_terms(make(), bound), W, Wstar)),
        ]:
            assert got == want, make()
            assert got.to_json() == want.to_json(), make()
            assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("W, Wstar", [(8, 8), (8, 5), (5, 8)])
def test_diagonal_sum_is_canonical(W, Wstar):
    """The series _diagonal_sum returns is the Fraction oracle's, field for
    field: no zero numerator, and no factor shared by den and every one."""
    bound = min(W, Wstar)
    q = q_lambda(StrictPartition([3, 1]), bound)
    h = q_lambda(StrictPartition([2]), bound)
    cancel = [[(3, 7, q), (-3, 7, q)], [(3, 7, q), (1, 2, h), (-6, 14, q)]]
    # g > 1: a 3 shared by 3/12 and L; a pure power of two; and r(n) = 2,
    # whose 2^{|lambda|} over 2^l leaves a power of two in every term
    common = [[(3, 12, q)], [(4, 8, q), (8, 16, h)], list(tau_terms(Table([2] * bound), bound))]
    for terms in cancel + common + [list(tau_terms(Ones(), bound))]:
        got = tau_module._diagonal_sum(terms, W, Wstar)
        want = _fraction_diagonal_sum(terms, W, Wstar)
        assert got == want and got.to_json() == want.to_json(), terms
        assert all(got.num.values()) and gcd(got.den, *got.num.values()) == 1, terms
    for terms in common:
        L = lcm(*(d * f.den**2 for _, d, f in terms))
        assert tau_module._diagonal_sum(terms, W, Wstar).den < L, terms
    # f against -f leaves the constant; Ones' tau keeps only diagonal cells
    assert tau_module._diagonal_sum(cancel[0], W, Wstar) == BiSeries.constant(W, Wstar)
    assert all(mt == ms for mt, ms in tau_bkp(Ones(), W, Wstar).terms)


def _power_loop_exp(s):
    """exp(s) as the sum of s^k / k!, as the series core computed it before
    the Euler recurrence: the reference that GradedSeries.exp is held to."""
    result = power = s * 0 + 1
    for k in range(1, sum(s.caps) + 1):
        power = power * s
        result = result + power * F(1, factorial(k))
    return result


@pytest.mark.parametrize("W, Wstar", [(10, 6), (6, 10)])
def test_exp_recurrence_matches_power_loop(W, Wstar):
    pairs = {(((n, 1),), ((n, 1),)): F(n, 2) for n in range(1, min(W, Wstar) + 1, 2)}
    kernel = BiSeries(W, Wstar, pairs)
    assert vacuum_kernel(W, Wstar) == _power_loop_exp(kernel)
    # terms of unequal t and t* weight, and a denominator to carry
    lopsided = kernel + BiSeries(W, Wstar, {(((3, 1),), ()): F(-2, 3), ((), ((1, 2),)): F(5, 7)})
    assert lopsided.exp() == _power_loop_exp(lopsided)


def test_tau_kp_ones_is_kp_cauchy_kernel():
    W = 6
    ker = BiSeries(W, W)
    for m in (1, 3, 5):
        ker = ker + BiSeries(W, W, {(((m, 1),), ((m, 1),)): F(m)})
    assert tau_kp(Ones(), W, W) == ker.exp()


def test_symmetry_and_scaling_invariance():
    for spec in SPECS:
        assert check_symmetry_scaling(spec, 2, 6).passed
        assert check_symmetry_scaling(spec, F(1, 3), 6).passed


def mono_weight(mono):
    return sum(m * e for m, e in mono)


def test_tau_terms_are_weight_balanced():
    # every surviving monomial pairs equal weights in t and t*, which is
    # exactly why the scaling substitution leaves the series fixed
    t = tau_bkp(Cutoff(3), 6, 6)
    assert any(mono_weight(mt) == 3 for (mt, ms) in t.terms)
    for (mt, ms) in t.terms:
        assert mono_weight(mt) == mono_weight(ms)


def substitute_tstar_tinfty(bi):
    """Collapse the t* alphabet of a BiSeries at t* = t_infinity, one
    Fraction per term (`substitute_terms`): the reference that
    tau_hyper_tinfty and tau_single_x_coefficients are held to."""
    W = bi.truncation_weight

    def image(v):
        alphabet, m = v
        return t_infinity(m) if alphabet else OddSeries.variable(W, m)

    return substitute_terms(bi, image, OddSeries.constant(W))


def hook_formula_tinfty(a_list, b_list, W):
    """The Pochhammer and hook-product route to tau_bkp at t* = t_infinity:
    1 + sum 2^{-l} Q_lambda(t/2) prod (a_k)_lambda / prod (b_k)_lambda /
    H*_lambda, reading Q_lambda(t_infinity/2) as 1/H*_lambda (which
    test_eval_at_tinfty_hook_product checks)."""
    acc = OddSeries.constant(W)
    for lam in enumerate_strict(W):
        c = F(1, 2 ** lam.length) / hook_star(lam)
        for a in a_list:
            c *= pochhammer_lambda(a, lam)
        for b in b_list:
            c /= pochhammer_lambda(b, lam)
        acc = acc + q_lambda(lam, W) * c
    return acc


# (a, b) of pFs; a = 0 and a = -2 end the series, at n = 1 and n = 3
HYPER_PARAMS = [
    ([], []),
    ([F(1)], [F(2)]),
    ([F(1, 2)], [F(3, 2)]),
    ([F(1, 2), F(3)], [F(5, 2)]),
    ([F(0)], []),
    ([F(-2)], [F(1, 3)]),
    ([F(3, 4), F(-1, 2)], [F(7, 3), F(5)]),
]


def test_tau_hyper_tinfty_matches_substitution():
    for a, b in HYPER_PARAMS:
        for W in (0, 1, 4, 8, 12, 16):
            direct = tau_hyper_tinfty(a, b, W)
            assert direct == substitute_tstar_tinfty(tau_bkp(RationalPS(a, b), W, W)), (a, b, W)
            assert direct == hook_formula_tinfty(a, b, W), (a, b, W)
    # empty parameters give the weight-one reduction
    assert tau_hyper_tinfty([], [], 8) == substitute_tstar_tinfty(tau_bkp(Ones(), 8, 8))


def tau_symmetric_hyper(alpha, beta, W):
    """tau_bkp for the symmetric-rational weight with t* = t_infinity.

    (n - 1/2)^2 - alpha^2 = (alpha + 1/2 + n - 1)(-alpha + 1/2 + n - 1), so
    this is tau_hyper_tinfty with the parameters +-alpha + 1/2, +-beta + 1/2.
    """
    half = Fraction(1, 2)

    def shifted(values):
        return [s * Fraction(v) + half for v in values for s in (1, -1)]

    return tau_hyper_tinfty(shifted(alpha), shifted(beta), W)


def test_tau_symmetric_hyper_matches_substitution():
    W = 6
    alpha = [F(1, 3)]
    direct = tau_symmetric_hyper(alpha, [], W)
    via_sub = substitute_tstar_tinfty(tau_bkp(SymmetricRational(alpha, []), W, W))
    assert (direct - via_sub).is_zero()


def test_hyper_one_var_frozen():
    cs = hyper_one_var([], [], 8)
    fact = 1
    for n, c in enumerate(cs):
        if n:
            fact *= n
        assert c == F(1, fact)
    cs = hyper_one_var([F(1)], [F(2)], 8)
    fact = 1
    for n, c in enumerate(cs):
        fact *= n + 1
        assert c == F(1, fact)


def test_hyper_one_var_is_the_pochhammer_quotient():
    for a, b in HYPER_PARAMS:
        got = hyper_one_var(a, b, 40)
        assert len(got) == 41
        for n, c in enumerate(got):
            want = F(1, factorial(n))
            for ak in a:
                want *= pochhammer(ak, n)
            for bk in b:
                want /= pochhammer(bk, n)
            assert c == want, (a, b, n)


def test_hyper_one_var_rejects_bad_b():
    # (b)_n vanishes for n > -b, outside the domain of pFs: refused as
    # RationalPS refuses it, even where the order stops short of that n
    for b in (0, -1, -3):
        for order in (0, 1, 4):
            with pytest.raises(RValueError, match="hits zero denominator"):
                hyper_one_var([F(1)], [F(b)], order)
        with pytest.raises(RValueError, match="hits zero denominator"):
            tau_hyper_tinfty([], [F(b)], 2)


def test_tau_single_x_matches_hyper_series():
    for a, b in ([[], []], [[F(1)], [F(2)]], [[F(1, 2), F(3)], [F(5, 2)]]):
        got = tau_single_x_coefficients(RationalPS(a, b), 7)
        want = hyper_one_var(a, b, 7)
        assert got == want


def test_tau_single_x_matches_the_two_alphabet_route():
    # the route tau_single_x_coefficients took before it read tau_x_series:
    # t* = t_infinity in the full tau_bkp, then each t-weight at x = 1
    one = XPoint([1])
    specs = SPECS[:-1] + [TParam({n: F(n * n + 1) for n in range(1, 11)}), Table([1, F(1, 2), 0, 3])]
    for spec in specs:
        for order in range(11):
            tau_x = substitute_tstar_tinfty(tau_bkp(spec, order, order))
            want = [eval_at_x(tau_x.weight_component(n), one) for n in range(order + 1)]
            assert tau_single_x_coefficients(spec, order) == want, (spec, order)


def scalar_product_r(f, g, spec):
    """Deformed pairing sum over lambda of c_lambda(f) c_lambda(g) 2^l r_lambda.

    Includes the empty partition through the constant terms.
    """
    return sum(scalar_product_r_by_weight(f, g, spec).values())


def test_scalar_product_r_orthogonality():
    spec = RationalPS([1], [2])
    W = 4
    for a in enumerate_strict(W):
        for b in enumerate_strict(W):
            qa, qb = q_lambda(a, W), q_lambda(b, W)
            want = F(2 ** a.length) * spec.r_lambda(a) if a == b else F(0)
            assert scalar_product_r(qa, qb, spec) == want
    # the undeformed case reduces to the canonical pairing
    f = q_lambda(StrictPartition([2, 1]), W) + q_lambda(StrictPartition([3]), W) * F(1, 5)
    assert scalar_product_r(f, f, Ones()) == scalar_product(f, f)


def test_check_tau_scalar_dual_route():
    tv = {1: F(1, 2), 3: F(1, 3)}
    sv = {1: F(1, 5), 3: F(-1, 7)}
    for spec in (Ones(), Cutoff(2), RationalPS([1], [2])):
        assert check_tau_scalar(spec, 6, tv, sv).passed


def test_check_tau_scalar_witness_names_lowest_failing_weight(monkeypatch):
    # extra t_3 t*_3 and t_1^2 t_3 t*_1^2 t*_3 terms on the series side break
    # the identity at partition weights 3 and 5; weights 0-2 still agree
    real = tau_module.tau_bkp
    w5 = ((1, 2), (3, 1))
    extra = {(((3, 1),), ((3, 1),)): F(1), (w5, w5): F(1)}

    def broken(spec, W, Wstar):
        return real(spec, W, Wstar) + BiSeries(W, Wstar, extra)

    monkeypatch.setattr(tau_module, "tau_bkp", broken)
    tv = {1: F(1, 2), 3: F(1, 3)}
    sv = {1: F(1, 5), 3: F(-1, 7)}
    rep = check_tau_scalar(Ones(), 6, tv, sv)
    assert not rep.passed
    label, lhs, rhs = rep.witness
    assert label == "weight 3"
    assert rhs - lhs == F(1, 3) * F(-1, 7)
    assert rep.to_json()["witness"]["monomial"] == "weight 3"


@pytest.mark.parametrize("W", [5, 6, 9])
def test_check_tau_scalar_witness_at_the_top_weight(W, monkeypatch):
    # r_(W) scaled in the series route alone: the pairing weights each lambda
    # by r_lambda_pair itself, so the two sides differ at weight W only
    monkeypatch.setattr(tau_module, "tau_terms", _perturbed_tau_terms(W, F(1001, 1000)))
    tv = {1: F(1, 2), 3: F(1, 3)}
    sv = {1: F(1, 5), 3: F(-1, 7)}
    rep = check_tau_scalar(RationalPS([F(1, 2)], [F(3, 4)]), W, tv, sv)
    assert not rep.passed
    label, lhs, rhs = rep.witness
    assert label == "weight %d" % W and lhs != rhs


def pair_tstar_against(bi, g):
    """Pair the t*-alphabet of a BiSeries against an OddSeries via the
    canonical scalar product, leaving an OddSeries in t."""
    W = bi.truncation_weight
    out = OddSeries(W)
    probe = {}
    for (mt, ms), c in bi.terms.items():
        single = OddSeries(bi.truncation_weight_star, {ms: F(1)})
        w = scalar_product(single, g)
        if w:
            out = out + OddSeries(W, {mt: c * w})
    return out


def test_tau_q_coefficients():
    # pairing tau against Q_mu in the t*-alphabet isolates r_mu Q_mu(t)
    W = 5
    spec = RationalPS([1], [2])
    t = tau_bkp(spec, W, W)
    for mu in enumerate_strict(W):
        got = pair_tstar_against(t, q_lambda(mu, W))
        want = q_lambda(mu, W) * spec.r_lambda(mu)
        assert (got - want).is_zero()


@pytest.mark.parametrize("key", [2, -1, 9, 0, "1"])
def test_check_tau_scalar_refuses_times_it_cannot_see(key):
    # both sides ignored such a time, so they agreed and the check passed
    for tv, sv in (({key: 1}, {key: 1}), ({1: F(1, 2)}, {key: 1}), ({key: 1}, {})):
        with pytest.raises(ValueError, match="time index %r " % (key,)):
            check_tau_scalar(Ones(), 6, tv, sv)
    assert check_tau_scalar(Ones(), 6, {5: 1}, {1: 1, 3: F(-1, 2)}).passed


def test_tau_bkp_is_built_once_per_spec_and_caps():
    spec = RationalPS([F(1, 2)], [F(3, 4)])
    t = tau_bkp(spec, 6, 6)
    assert tau_bkp(spec, 6, 6) is t
    assert check_symmetry_scaling(spec, 2, 6).passed and tau_bkp(spec, 6, 6) is t
    other = tau_bkp(spec, 6, 4)
    assert other is not t and other.caps == (6, 4)
    assert tau_bkp(spec, 6, 4) is other
    fresh = RationalPS([F(1, 2)], [F(3, 4)])
    assert t == tau_bkp(fresh, 6, 6) and other == tau_bkp(fresh, 6, 4)
    assert tau_bkp(fresh, 6, 6) is not t


def test_failed_tau_bkp_build_is_not_kept():
    short = Table([1, F(1, 2)])  # r(3) is not tabulated
    for _ in range(3):
        with pytest.raises(RValueError, match="r\\(3\\)"):
            tau_bkp(short, 6, 6)
    assert tau_bkp(short, 2, 2) == tau_bkp(Table([1, F(1, 2)]), 2, 2)


# One spec per spec-scan family at W = 10 with seeded times, and the sha256
# of its five reports' JSON, measured before the series evaluation, scaling
# and pairing were summed in integers; then one at the spec-scan weight 14,
# with zero and absent times in each alphabet, measured before tau_bkp was
# summed in weight blocks and evaluated once per alphabet.
SCAN_GOLDEN = [
    (
        10,
        "table:1/2,4,1,1,5/3,5/2,3/2,2/5,1/3,1,1/4,1/3",
        {1: "-5/2", 3: "4", 5: "-1/3"},
        {1: "5/3", 3: "-1", 5: "4/3"},
        "0e6d58fed896a79a2f268f200e4e43b897f1b6bb1c183869475754d713a789b0",
    ),
    (
        10,
        "tparam:T1=4/3,T2=1/5,T3=1,T4=4,T5=2,T6=1,T7=3/5,T8=1/4,T9=2,T10=1/2,T11=1/5,T12=3/2",
        {1: "-4", 3: "-3/5", 5: "-5/2"},
        {1: "-1", 3: "2/5", 5: "2"},
        "aabf662191dcde67dbbebc1f1cbce7889075c5543142d26837c517504b88ff96",
    ),
    (
        10,
        "ratps:a=5,1/3;b=5/4",
        {1: "4/3", 3: "4/5", 5: "5/3"},
        {1: "5/4", 3: "-4/3", 5: "-1"},
        "9e91a94f3d2e231e8422efd886b2542c9d5451e308e7ef19dddc5ecf673d95a4",
    ),
    (
        10,
        "symrat:alpha=5/3;beta=5/4",
        {1: "-3/5", 3: "1/4", 5: "-1/5"},
        {1: "1/2", 3: "-3/2", 5: "5/4"},
        "083da093c516e5a3e964fdb7db34ec7b1d27238f1270e093f931d9813221af0b",
    ),
    (
        14,
        "tparam:T1=4/3,T2=1/5,T3=1,T4=4,T5=2,T6=1,T7=3/5,T8=1/4,T9=2,T10=1/2,T11=1/5,"
        "T12=3/2,T13=2/7,T14=5,T15=1/3,T16=3",
        {1: "-4", 3: "0", 5: "-5/2", 13: "1/3"},
        {1: "-1", 3: "2/5", 5: "2", 7: "0"},
        "09fd4b71d6069da15a54916825d45c16d260901b5ed61f9c54a7d4e06a36d272",
    ),
]


@pytest.mark.parametrize(
    "W, text, t, tstar, digest",
    SCAN_GOLDEN,
    # the ids the entries had before W became a field
    ids=["%s-t%d-tstar%d-%s" % (g[1], i, i, g[4]) for i, g in enumerate(SCAN_GOLDEN)],
)
def test_scan_reports_byte_identical(W, text, t, tstar, digest):
    spec = parse_rspec(text)
    reports = [check_symmetry_scaling(spec, 2, W)]
    reports += [check_linear_eq_N1(spec, m, W, W) for m in (1, 3, 5)]
    times = [{m: F(v) for m, v in d.items()} for d in (t, tstar)]
    reports.append(check_tau_scalar(spec, W, *times))
    assert all(r.passed for r in reports)
    out = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The four spec-scan families of SCAN_GOLDEN at the spec-scan weight 14.  The
# W = 10 table and tparam end at r(12), short of what W = 14 asks, so the table
# gets r(13) = 3/7 and r(14) = 2 appended and the W = 14 tparam stands in.
SCAN_FAMILIES_AT_14 = [
    (SCAN_GOLDEN[0][1] + ",3/7,2",) + SCAN_GOLDEN[0][2:4],
    SCAN_GOLDEN[4][1:4],
    SCAN_GOLDEN[2][1:4],
    SCAN_GOLDEN[3][1:4],
]


@pytest.mark.parametrize("text, t, tstar", SCAN_FAMILIES_AT_14)
def test_integer_r_pairing_matches_fraction_pairing_at_scan_weight(text, t, tstar):
    W = 14
    f, g = (_exp_kernel({m: F(v) for m, v in d.items()}, W) for d in (t, tstar))
    _assert_pairing_matches_oracle(f, g, parse_rspec(text))


@pytest.mark.parametrize("zero", [{}, {1: 0, 3: 0}])
def test_check_tau_scalar_refuses_an_alphabet_at_zero(zero, monkeypatch):
    # both sides are then 1, so even a broken tau passed
    real = tau_module.tau_bkp

    def broken(spec, W, Wstar):
        extra = BiSeries(W, Wstar, {(((1, 1),), ((1, 1),)): F(5)})
        return real(spec, W, Wstar) * 2 - 1 + extra

    monkeypatch.setattr(tau_module, "tau_bkp", broken)
    spec = Table([1, 2, 3, 4, 5, 6])
    other = {1: F(1, 2)}
    with pytest.raises(ValueError, match="of the t alphabet is zero"):
        check_tau_scalar(spec, 6, zero, other)
    with pytest.raises(ValueError, match=r"of the t\* alphabet is zero"):
        check_tau_scalar(spec, 6, other, zero)
    assert not check_tau_scalar(spec, 6, {1: F(1, 3)}, other).passed


def test_passing_check_symmetry_scaling_builds_no_series(monkeypatch):
    # both halves read tau's numerators in one pass; only a failure's witness
    # is built, as Fractions, and no series at all
    def refuse(*args):
        raise AssertionError("a series built by a passing check")

    cases = [(spec, a, 6) for spec in SPECS for a in (2, F(1, 3))]
    cases.append((parse_rspec(SCAN_GOLDEN[3][1]), F(1, 3), 14))
    for spec, _, W in cases:
        tau_bkp(spec, W, W)
    monkeypatch.setattr(gseries_module, "_fill", refuse)
    monkeypatch.setattr(tau_module, "_fill", refuse)
    for spec, a, W in cases:
        assert check_symmetry_scaling(spec, a, W).passed, (spec, a)


def test_check_symmetry_scaling_fails_a_cell_written_in_the_wrong_half():
    # the coefficient of t_1^3 t*_3 moved onto its mirror t_3 t*_1^3, as a
    # mirror written at the wrong keys would leave it: the weights still
    # balance, so only the swap half can see it
    W = 6
    spec = SymmetricRational([F(1, 3)], [F(1, 5)])
    cell, mirror = (((1, 3),), ((3, 1),)), (((3, 1),), ((1, 3),))
    terms = dict(tau_bkp(spec, W, W).terms)
    c = terms.pop(cell)
    assert c and terms[mirror] == c
    terms[mirror] += c
    spec._tau_bkp[(W, W)] = BiSeries(W, W, terms)
    rep = check_symmetry_scaling(spec, 2, W).to_json()
    assert rep["name"] == "symmetry-swap" and not rep["pass"]
    assert rep["witness"] == {"monomial": "t:{1: 3} t*:{3: 1}", "lhs": str(2 * c), "rhs": "0"}


def test_check_symmetry_scaling_sees_unequal_weight_and_asymmetric_terms(monkeypatch):
    # tau_bkp builds neither kind of term, so no r can make the check fail;
    # these pin what each half of it sees
    real = tau_module.tau_bkp
    t1, t3, t1_cubed = ((1, 1),), ((3, 1),), ((1, 3),)
    for extra, name, witness, lhs in (
        # t_1 t*_3 + t_3 t*_1 is symmetric; a = 2 scales t_1 t*_3 by 2^(1-3)
        ({(t1, t3): F(1), (t3, t1): F(1)}, "symmetry-scaling", "t:{1: 1} t*:{3: 1}", "1/4"),
        # t_1^3 t*_3 has t-weight 3 = t*-weight, but its swap is not in tau
        ({(t1_cubed, t3): F(1)}, "symmetry-swap", "t:{1: 3} t*:{3: 1}", "0"),
    ):
        monkeypatch.setattr(
            tau_module,
            "tau_bkp",
            lambda spec, W, Wstar, extra=extra: real(spec, W, Wstar)
            + BiSeries(W, Wstar, extra),
        )
        rep = check_symmetry_scaling(Ones(), 2, 6).to_json()
        assert rep["name"] == name and not rep["pass"]
        assert rep["witness"] == {"monomial": witness, "lhs": lhs, "rhs": "1"}


@pytest.mark.parametrize("a", [2, F(1, 3), -2, -1, 1])
def test_check_symmetry_scaling_matches_the_fraction_reference(a):
    # random asymmetric terms, and symmetric pairs of unequal weight, written
    # into a spec's kept tau: the report is compare_series over the
    # reference's swap, then over its (a^m, a^-m) scaling
    W = 6
    spec = SymmetricRational([F(1, 3)], [F(1, 5)])
    base = dict(tau_bkp(spec, W, W).terms)
    monos = sorted({mt for mt, _ in base})
    rng = random.Random(7)
    outcomes = set()
    for case in range(60):
        terms = dict(base)
        for _ in range(rng.randint(1, 3)):
            mt, ms = rng.choice(monos), rng.choice(monos)
            c = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
            # an even case adds each term with its mirror, so tau stays symmetric
            for mono in [(mt, ms), (ms, mt)] if case % 2 == 0 else [(mt, ms)]:
                terms[mono] = terms.get(mono, 0) + c
        spec._tau_bkp[(W, W)] = BiSeries(W, W, terms)
        got = check_symmetry_scaling(spec, a, W)
        ref = RefSeries(BiSeries, (W, W), ((), ()), terms)
        want = compare_series("symmetry-swap", {"r": repr(spec), "weight": W}, ref.swap(), ref)
        if want.passed:
            scaled = ref.scaled(lambda m: F(a) ** (_weight(m[0]) - _weight(m[1])))
            params = {"r": repr(spec), "weight": W, "a": str(F(a))}
            want = compare_series("symmetry-scaling", params, scaled, ref)
        assert got.to_json() == want.to_json(), (case, terms)
        gaps = {_weight(mt) - _weight(ms) for mt, ms in ref.terms}
        if got.name == "symmetry-scaling":
            # a^s = 1 at every weight gap s when a = 1, at the even s when a = -1
            if a == 1:
                assert got.passed
            elif a == -1:
                assert got.passed == all(s % 2 == 0 for s in gaps)
        outcomes.add((got.name, got.passed, gaps != {0}))
    # the draws reach each outcome this a allows
    assert any(name == "symmetry-swap" for name, _, _ in outcomes)
    if a != 1:
        assert ("symmetry-scaling", False, True) in outcomes
    if a in (1, -1):
        assert ("symmetry-scaling", True, True) in outcomes
    with pytest.raises(ValueError, match="nonzero"):
        check_symmetry_scaling(spec, 0, W)
