"""Pseudo-difference operator r(D) on one-variable series, D = x d/dx.

r(D) x^n = r(n) x^n, so the operator is diagonal on monomials; x r(-D) is a
diagonal weight followed by a shift.  A series in x is the list
[c_0, ..., c_n] of its coefficients, OddSeries in t*.  Used for the
single-point form of the linear constraint on the tau function.
"""

from fractions import Fraction

from .gseries import OddSeries
from .tau import TauReport, compare_series, tau_terms


def apply_x_r_negD(f, spec, power=1):
    """(x r(-D))^power, one scalar per coefficient: x^n goes to
    r(-n) r(-n-1) ... r(-n-power+1) x^(n+power), the product taken in ints.
    The result is zero below x^power and the top `power` coefficients of f
    drop off; a power below 1 is the identity and asks r for nothing.
    """
    if power < 1:
        return f
    weights = [spec.r_value(-j) for j in range(len(f) - 1)]
    kept = f[: max(len(f) - power, 0)]
    out = [OddSeries(f[0].truncation_weight)] * (len(f) - len(kept))
    for n, c in enumerate(kept):
        num = den = 1
        for v in weights[n : n + power]:
            num, den = num * v.numerator, den * v.denominator
        out.append(c._like({key: a * num for key, a in c.num.items()}, c.den * den))
    return out


def tau_x_series(spec, n_max, W):
    """tau_r(t(x), t*) as [c_0, ..., c_n_max], OddSeries in t*, summed from
    the terms (n, d, Q_lambda) of `tau.tau_terms`.

    At one point only the one-row lambda = (n) survive, and
    Q_(n)(t(x)/2) = 2 x^n (`qschur._miwa_reader` at one point), so c_n is
    2 (n / d) Q_(n)(t*/2), that is r(1)...r(n) h_n(t*); c_0 = 1.  Every c_n
    is truncated at cap = min(n_max, W): c_n has weight n, so below the cap
    no term is lost, and above it c_n is zero.  r is asked up to r(cap).

    Kept on the spec per (n_max, W), as tau.tau_bkp keeps tau: the linear
    checks of one spec share one build, a failed build is not kept, and
    each call gets a new list.
    """
    built = spec.__dict__.setdefault("_tau_x_series", {})
    coeffs = built.get((n_max, W))
    if coeffs is None:
        cap = min(n_max, W)
        coeffs = [OddSeries.constant(cap)] + [OddSeries(cap)] * n_max
        for num, den, q in tau_terms(spec, cap, max_length=1):
            n = q.codec.grade(next(iter(q.num)))[0]  # Q_(n) has weight n
            coeffs[n] = q * Fraction(2 * num, den)
        built[(n_max, W)] = coeffs
    return list(coeffs)


def check_linear_eq_N1(spec, m, n_max, W):
    """(d/dt*_m - (x r(-D))^m) tau_r(t(x), t*) = 0, one-point case."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and at least 1, got %d" % m)
    # h_n(t*) vanishes at truncation W < n, while (x r(-D))^m still carries
    # h_{n-m}; and with m above the order both sides are zero
    if n_max > W:
        raise ValueError("order %d exceeds weight %d" % (n_max, W))
    if m > n_max:
        raise ValueError("m=%d exceeds order %d, so both sides vanish" % (m, n_max))
    tau = tau_x_series(spec, n_max, W)
    rhs = apply_x_r_negD(tau, spec, power=m)
    params = {"r": repr(spec), "m": m, "order": n_max, "weight": W}
    for n in range(n_max + 1):
        rep = compare_series(
            "linear-eq-N1",
            params,
            tau[n].partial(m),
            rhs[n],
            lambda mono: "x^%d %s" % (n, dict(mono)),
        )
        if not rep.passed:
            return rep
    return TauReport("linear-eq-N1", params, True)
