"""The diagonal operator r(D) and the one-point linear constraint."""

from fractions import Fraction
from math import prod

import pytest

from bkpq import ops, tau
from bkpq.gseries import OddSeries
from bkpq.ops import apply_x_r_negD, check_linear_eq_N1, tau_x_series
from bkpq.partitions import StrictPartition
from bkpq.qschur import XPoint, eval_at_x, h_k, q_lambda
from bkpq.rspec import (
    Cutoff,
    Ones,
    RationalPS,
    RSpec,
    RValueError,
    SymmetricRational,
    Table,
    TParam,
    parse_rspec,
)
from bkpq.tau import check_tau_scalar, tau_bkp, tau_terms
from test_qschur import eval_at_tinfty

F = Fraction

SPECS = [
    Ones(),
    Cutoff(2),
    Cutoff(3),
    RationalPS([1], [2]),
    SymmetricRational([F(1, 3)], []),
    TParam({n: F(2 ** n) for n in range(1, 9)}),
]


def basis(n, n_max, W):
    """The monomial x^n with coefficient 1, as a coefficient list in x."""
    coeffs = [OddSeries(W) for _ in range(n_max + 1)]
    coeffs[n] = OddSeries.constant(W, 1)
    return coeffs


def test_operator_is_diagonal_in_x():
    # x^3 goes to r(-3) x^4 and every other coefficient stays zero
    spec = RationalPS([2], [])  # r(n) = n + 1 for n > 0
    g = apply_x_r_negD(basis(3, 5, 4), spec)
    assert len(g) == 6
    assert g[4].constant_term() == spec.r_value(-3) == 5
    assert all(g[n].is_zero() for n in range(6) if n != 4)


def test_shift_drops_top_coefficient():
    f = basis(5, 5, 4)
    assert all(c.is_zero() for c in apply_x_r_negD(f, Ones()))
    g = apply_x_r_negD(basis(2, 5, 4), Ones())
    assert g[3].constant_term() == 1


def test_operator_order_diagonal_then_shift():
    # (x r(-D)) x^n = r(-n) x^{n+1}: the weight uses the argument n,
    # not the shifted exponent
    spec = RationalPS([2], [])
    g = apply_x_r_negD(basis(2, 5, 4), spec)
    assert g[3].constant_term() == spec.r_value(-2)
    assert spec.r_value(-2) != spec.r_value(-3)


def test_operator_power_composes():
    spec = RationalPS([1], [2])
    f = basis(1, 6, 4)
    once_twice = apply_x_r_negD(apply_x_r_negD(f, spec), spec)
    squared = apply_x_r_negD(f, spec, power=2)
    assert once_twice == squared
    assert not squared[3].is_zero()


def _one_step(f, spec):
    """x r(-D) applied once, as a weight pass then a shift: the reference
    that the closed form of apply_x_r_negD is held to."""
    zero = OddSeries(f[0].truncation_weight)
    return [zero] + [c * spec.r_value(-n) for n, c in enumerate(f[:-1])]


@pytest.mark.parametrize(
    "spec",
    # r(-j) = r(1 + j): Cutoff(3) zeroes every window that reaches j = 2
    [Table([F(1, 2), 3, F(-2, 5), 7, F(5, 3), 2, F(1, 4)]), Cutoff(3)],
    ids=repr,
)
def test_operator_power_is_repeated_single_step(spec):
    W = 6
    for n_max in (4, 6):
        # every coefficient nonzero, so a zero weight shows
        f = [h_k(n, W) + OddSeries.variable(W, 3) * F(-2, n + 2) for n in range(n_max + 1)]
        want = f
        for power in range(7):
            got = apply_x_r_negD(f, spec, power=power)
            assert len(got) == len(f) and got == want, (n_max, power)
            if power >= len(f):
                assert all(c.is_zero() for c in got)
            want = _one_step(want, spec)
        assert apply_x_r_negD(f, spec) == _one_step(f, spec)
    if isinstance(spec, Cutoff):
        # r(1) r(2) = 1 carries x^0 to x^2; every later window holds r(3) = 0
        squared = apply_x_r_negD(f, spec, power=2)
        assert not squared[2].is_zero() and all(c.is_zero() for c in squared[3:])


def _fraction_prod_route(f, spec, power):
    """apply_x_r_negD as a Fraction product per coefficient: the reference
    that its int products are held to."""
    weights = [spec.r_value(-j) for j in range(len(f) - 1)]
    kept = f[: max(len(f) - power, 0)]
    zero = [OddSeries(f[0].truncation_weight)] * (len(f) - len(kept))
    return zero + [c * prod(weights[n : n + power]) for n, c in enumerate(kept)]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_operator_power_is_the_fraction_product_route(spec):
    f = tau_x_series(spec, 8, 8)
    for m in (1, 3, 5):
        got, want = apply_x_r_negD(f, spec, m), _fraction_prod_route(f, spec, m)
        assert [(c.num, c.den) for c in got] == [(c.num, c.den) for c in want], m
    if isinstance(spec, Cutoff):
        # the weight r(1 - M) = r(M) = 0 meets the nonzero x^(M-1)
        assert not f[spec.M - 1].is_zero() and apply_x_r_negD(f, spec)[spec.M].is_zero()


def one_row_route(spec, n_max, W):
    """tau_x_series as it was built before it read tau.tau_terms, r(1)...r(n)
    h_n(t*), with every coefficient at the cap min(n_max, W): zero past W."""
    cap = min(n_max, W)
    return [h_k(n, cap) * spec.r_prefix(n) if n <= W else OddSeries(cap) for n in range(n_max + 1)]


def tau_single_x_coefficients(spec, order):
    """[x^n] of tau_r at t = t(x) (one point) and t* = t_infinity, n <= order:
    each coefficient of `tau_x_series` at t_infinity, r(1)...r(n) / n!.  An
    oracle for tau.hyper_one_var on RationalPS, reached through tau_terms."""
    return [eval_at_tinfty(c) for c in tau_x_series(spec, order, order)]


def _outcome(route, *args):
    """The value of route(*args), or the message of the RValueError it raises."""
    try:
        return route(*args)
    except RValueError as exc:
        return str(exc)


def test_tau_x_series_coefficients():
    W = 14
    for spec in SPECS + [Cutoff(4)]:
        for n_max in (5, W, W + 3):
            # both routes ask r up to r(min(n_max, W)): the TParam of SPECS
            # has e^{T_n} up to n = 8, so past that both raise the same error
            got = _outcome(tau_x_series, spec, n_max, W)
            want = _outcome(one_row_route, spec, n_max, W)
            assert got == want, (spec, n_max)
            if isinstance(got, list):
                assert len(got) == n_max + 1


def _counting_tau_terms(builds):
    """tau.tau_terms that records each (W, max_length) it is asked for."""

    def terms(spec, W, max_length=None):
        builds.append((W, max_length))
        return tau_terms(spec, W, max_length)

    return terms


def test_one_point_series_is_built_once_per_order_and_weight(monkeypatch):
    builds = []
    monkeypatch.setattr(ops, "tau_terms", _counting_tau_terms(builds))
    spec = RationalPS([F(1, 2), 3], [F(5, 2)])
    first = tau_x_series(spec, 8, 8)
    for m in (1, 3, 5):
        assert check_linear_eq_N1(spec, m, 8, 8).passed, m
    again = tau_x_series(spec, 8, 8)
    assert builds == [(8, 1)]
    assert again == first and again is not first
    # a caller may change its list: the kept one does not move
    again[1] = again[0]
    assert tau_x_series(spec, 8, 8) == first
    tau_x_series(spec, 5, 8)
    assert builds == [(8, 1), (5, 1)]


@pytest.mark.parametrize(
    "make",
    [
        Ones,
        lambda: Cutoff(4),
        lambda: RationalPS([F(1, 2), 3], [F(5, 2)]),
        lambda: SymmetricRational([F(1, 3)], [F(1, 5)]),
    ],
)
def test_kept_one_point_series_equals_a_fresh_build(make):
    # (5, 14), (14, 14) and (17, 14) share W and (14, 14) and (17, 14) the
    # cap min(n_max, W): only the pair (n_max, W) tells them apart
    spec = make()
    for _ in range(2):
        for n_max, W in ((5, 14), (14, 14), (17, 14), (2, 8)):
            assert tau_x_series(spec, n_max, W) == tau_x_series(make(), n_max, W), (n_max, W)


def test_a_failed_one_point_build_is_not_kept():
    spec = parse_rspec("table:1,1/2,3,2")
    for _ in range(2):
        with pytest.raises(RValueError):
            tau_x_series(spec, 5, 5)  # asks r(5) of a 4-value table
    assert tau_x_series(spec, 4, 4) == tau_x_series(parse_rspec("table:1,1/2,3,2"), 4, 4)
    assert check_linear_eq_N1(spec, 1, 4, 4).passed


def test_a_spec_scan_op_walks_each_partition_list_once(monkeypatch):
    # tau_bkp and the pairing of check_tau_scalar each walk the strict table
    # of the 109 strict partitions of weight <= 14 once; the three linear
    # checks share one walk, which keeps the 14 one-row ones.  A walk per
    # linear check would make 5 walks and 260 r_lambda_pair reads.
    walks, calls, counts = [], [], {"r_lambda_pair": 0}
    real_table, real_terms, real_pair = tau._strict_table, tau.tau_terms, RSpec.r_lambda_pair

    def strict_table(W):
        walks.append(W)
        return real_table(W)

    def tau_terms(spec, W, max_length=None):
        calls.append((W, max_length))
        return real_terms(spec, W, max_length)

    def r_lambda_pair(self, lam):
        counts["r_lambda_pair"] += 1
        return real_pair(self, lam)

    monkeypatch.setattr(tau, "_strict_table", strict_table)
    for module in (ops, tau):
        monkeypatch.setattr(module, "tau_terms", tau_terms)
    monkeypatch.setattr(RSpec, "r_lambda_pair", r_lambda_pair)
    W = 14
    spec = RationalPS([F(1, 2), 3], [F(5, 2)])
    tau_bkp(spec, W, W)
    for m in (1, 3, 5):
        assert check_linear_eq_N1(spec, m, W, W).passed, m
    t, tstar = {1: F(1, 2), 3: F(-2, 3), 5: F(3, 4)}, {1: F(-1, 3), 3: F(2, 5), 5: F(1, 7)}
    assert check_tau_scalar(spec, W, t, tstar).passed
    assert walks == [W, W, W]
    assert calls == [(W, None), (W, 1)]  # tau_bkp, then the linear checks' one-row walk
    assert counts == {"r_lambda_pair": 232}


@pytest.mark.parametrize("x", [F(1), F(-2, 3), F(5)])
def test_one_row_q_at_one_point_is_twice_the_power(x):
    # the constant 2 of tau_x_series, held to the Miwa map of eval_at_x
    for n in range(1, 15):
        assert eval_at_x(q_lambda(StrictPartition([n]), 14), XPoint([x])) == 2 * x**n, n


def _perturbed_tau_terms(n, factor):
    """tau.tau_terms with the coefficient of lambda = (n) times factor."""

    def terms(spec, W, max_length=None):
        target = q_lambda(StrictPartition([n]), W) if n <= W else None
        for num, den, q in tau_terms(spec, W, max_length):
            if q == target:
                num, den = num * factor.numerator, den * factor.denominator
            yield num, den, q

    return terms


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymmetricRational([F(1, 3)], [F(1, 5)]),
        Ones,
        lambda: RationalPS([F(1, 2), 3], [F(5, 2)]),
    ],
)
def test_linear_check_reads_tau_terms(make, monkeypatch):
    assert check_linear_eq_N1(make(), 1, 8, 8).passed
    for n in range(1, 9):
        monkeypatch.setattr(ops, "tau_terms", _perturbed_tau_terms(n, F(1001, 1000)))
        assert not check_linear_eq_N1(make(), 1, 8, 8).passed, n
        # at m = 5 and order 8 the coefficient of x^4 meets d/dt*_5 h_4 = 0
        # on the left and nothing on the right: that window is blind
        assert check_linear_eq_N1(make(), 5, 8, 8).passed == (n == 4), n


def test_linear_equation_one_point():
    for spec in SPECS:
        for m in (1, 3):
            rep = check_linear_eq_N1(spec, m, 6, 6)
            assert rep.passed, rep.to_json()


def test_linear_equation_rejects_even_m():
    # a negative odd m is refused too: partial(-1) is zero and (x r(-D))^-1
    # applies no step, so it would read as a failed identity
    for m in (2, 0, -1, -3):
        with pytest.raises(ValueError):
            check_linear_eq_N1(Ones(), m, 6, 6)


class NoReflection(RSpec):
    """Deliberately breaks r(n) = r(1-n); the linear constraint must fail."""

    def r_value(self, n):
        return F(n + 5)


def test_linear_equation_fails_without_reflection():
    spec = NoReflection()
    rep = check_linear_eq_N1(spec, 1, 6, 6)
    # the override is asked, not a value kept by the base class
    assert [spec.r_value(n) for n in (-1, 2, -1)] == [4, 7, 4]
    # a spec with no _describe reads as object.__repr__, as before the text was kept
    assert repr(spec) == object.__repr__(spec) == rep.params["r"]
    assert not rep.passed
    assert rep.witness is not None
    lhs, rhs = rep.witness[1], rep.witness[2]
    assert lhs != rhs
