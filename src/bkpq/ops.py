"""Pseudo-difference operator r(D) on one-variable series, D = x d/dx.

r(D) x^n = r(n) x^n, so the operator is diagonal on monomials; x r(-D) is a
shift followed by a diagonal weight.  Used for the single-point form of the
linear constraint on the tau function.
"""

from .gseries import OddSeries
from .qschur import h_k
from .tau import TauReport, compare_series


class XSeries:
    """Truncated series in x whose coefficients are OddSeries in t*."""

    __slots__ = ("n_max", "W", "coeffs")

    def __init__(self, n_max, W, coeffs=None):
        object.__setattr__(self, "n_max", int(n_max))
        object.__setattr__(self, "W", int(W))
        if coeffs is None:
            coeffs = [OddSeries(W) for _ in range(n_max + 1)]
        else:
            coeffs = list(coeffs)
            if len(coeffs) != n_max + 1:
                raise ValueError("need n_max + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("XSeries is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, XSeries)
            and self.n_max == other.n_max
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __sub__(self, other):
        if self.n_max != other.n_max:
            raise ValueError("order mismatch")
        return XSeries(
            self.n_max, self.W, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def partial_tstar(self, m):
        """d/dt*_m applied coefficientwise."""
        return XSeries(self.n_max, self.W, [c.partial(m) for c in self.coeffs])

    def __repr__(self):
        return "XSeries(n_max=%d, W=%d)" % (self.n_max, self.W)


def apply_rD(f, spec, negate_argument=False):
    """Multiply the x^n coefficient by r(n), or r(-n) when negate_argument."""
    out = []
    for n, c in enumerate(f.coeffs):
        arg = -n if negate_argument else n
        out.append(c * spec.r_value(arg))
    return XSeries(f.n_max, f.W, out)


def shift_x(f):
    """Multiply by x, dropping the coefficient pushed past n_max."""
    return XSeries(f.n_max, f.W, [OddSeries(f.W)] + list(f.coeffs[:-1]))


def apply_x_r_negD(f, spec, power=1):
    """(x r(-D))^power by repeated application: weight by r(-n), then shift."""
    out = f
    for _ in range(power):
        out = shift_x(apply_rD(out, spec, negate_argument=True))
    return out


def tau_x_series(spec, n_max, W):
    """tau_r(t(x), t*) = sum_n r(1)...r(n) x^n h_n(t*), h at odd times."""
    coeffs = []
    for n in range(n_max + 1):
        if n > W:
            coeffs.append(OddSeries(W))
            continue
        pref = spec.r_prefix(n)
        coeffs.append(h_k(n, W) * pref if pref else OddSeries(W))
    return XSeries(n_max, W, coeffs)


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
    lhs = tau.partial_tstar(m)
    rhs = apply_x_r_negD(tau, spec, power=m)
    params = {"r": repr(spec), "m": m, "order": n_max, "weight": W}
    for n in range(n_max + 1):
        rep = compare_series(
            "linear-eq-N1",
            params,
            lhs.coeffs[n],
            rhs.coeffs[n],
            lambda mono: "x^%d %s" % (n, dict(mono)),
        )
        if not rep.passed:
            return rep
    return TauReport("linear-eq-N1", params, True)
