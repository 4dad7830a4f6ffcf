"""The diagonal operator r(D) and the one-point linear constraint."""

from fractions import Fraction

import pytest

from bkpq.gseries import OddSeries
from bkpq.ops import (
    XSeries,
    apply_rD,
    apply_x_r_negD,
    check_linear_eq_N1,
    shift_x,
    tau_x_series,
)
from bkpq.qschur import h_k
from bkpq.rspec import (
    Cutoff,
    Ones,
    RationalPS,
    RSpec,
    SymmetricRational,
    TParam,
)

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
    """The monomial x^n with coefficient 1."""
    coeffs = [OddSeries(W) for _ in range(n_max + 1)]
    coeffs[n] = OddSeries.constant(W, 1)
    return XSeries(n_max, W, coeffs)


def test_apply_rD_is_diagonal():
    spec = RationalPS([2], [])  # r(n) = n + 1
    f = basis(3, 5, 4)
    g = apply_rD(f, spec)
    assert g.coeffs[3].constant_term() == 4
    assert all(g.coeffs[n].is_zero() for n in range(6) if n != 3)
    h = apply_rD(f, spec, negate_argument=True)
    assert h.coeffs[3].constant_term() == spec.r_value(-3)


def test_shift_drops_top_coefficient():
    f = basis(5, 5, 4)
    assert shift_x(f).is_zero()
    g = shift_x(basis(2, 5, 4))
    assert g.coeffs[3].constant_term() == 1


def test_operator_order_diagonal_then_shift():
    # (x r(-D)) x^n = r(-n) x^{n+1}: the weight uses the argument n,
    # not the shifted exponent
    spec = RationalPS([2], [])
    g = apply_x_r_negD(basis(2, 5, 4), spec)
    assert g.coeffs[3].constant_term() == spec.r_value(-2)


def test_operator_power_composes():
    spec = RationalPS([1], [2])
    f = basis(1, 6, 4)
    once_twice = apply_x_r_negD(apply_x_r_negD(f, spec), spec)
    squared = apply_x_r_negD(f, spec, power=2)
    assert (once_twice - squared).is_zero()


def test_tau_x_series_coefficients():
    W = 6
    spec = RationalPS([1], [2])
    t = tau_x_series(spec, 5, W)
    for n in range(6):
        want = h_k(n, W) * spec.r_prefix(n)
        assert (t.coeffs[n] - want).is_zero()


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
    rep = check_linear_eq_N1(NoReflection(), 1, 6, 6)
    assert not rep.passed
    assert rep.witness is not None
    lhs, rhs = rep.witness[1], rep.witness[2]
    assert lhs != rhs
