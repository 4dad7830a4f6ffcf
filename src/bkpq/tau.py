"""BKP and KP hypergeometric tau-function series and the identity checks.

tau_r(t, t*) = 1 + sum over nonzero strict partitions of
2^{-l} r_lambda Q_lambda(t/2) Q_lambda(t*/2).  Every check compares
truncated series coefficientwise and reports the first failing monomial.
"""

from fractions import Fraction
from math import factorial

from .gseries import BiSeries, OddSeries
from .partitions import enumerate_partitions, enumerate_strict
from .qschur import (
    XPoint,
    eval_at_x,
    q_expand,
    q_lambda,
    scalar_product,
    schur_s,
    t_infinity,
)
from .rspec import content_product_kp, hook_star, pochhammer, pochhammer_lambda


class TauReport:
    """Outcome of one identity check; failures carry a witness monomial."""

    def __init__(self, name, params, passed, witness=None):
        self.name = name
        self.params = dict(params)
        self.passed = bool(passed)
        self.witness = witness
        if not passed and witness is None:
            raise ValueError("failing report needs a witness")

    def to_json(self):
        out = {"name": self.name, "params": self.params, "pass": self.passed}
        if self.witness is not None:
            mono, lhs, rhs = self.witness
            out["witness"] = {"monomial": mono, "lhs": str(lhs), "rhs": str(rhs)}
        return out

    def __repr__(self):
        return "TauReport(%s, %s)" % (self.name, "pass" if self.passed else "FAIL")


def _bi_label(mono):
    mt, ms = mono
    return "t:%s t*:%s" % (dict(mt), dict(ms))


def compare_series(name, params, lhs, rhs, label=_bi_label):
    """Report lhs == rhs.  A failure's witness is their first differing
    monomial, written out by label (the default suits BiSeries)."""
    bad = lhs.first_difference(rhs)
    if bad is None:
        return TauReport(name, params, True)
    return TauReport(
        name,
        params,
        False,
        (label(bad), lhs.terms.get(bad, Fraction(0)), rhs.terms.get(bad, Fraction(0))),
    )


def tau_terms(spec, W, max_length=None):
    """(2^{-l} r_lambda, Q_lambda(t/2)) over the nonzero strict partitions of
    weight <= W, and length <= max_length if given, with r_lambda != 0.

    Q_lambda is truncated at W.  tau_r is 1 plus the sum of these terms
    with Q_lambda(t*/2) as a third factor.
    """
    for lam in enumerate_strict(W):
        if max_length is not None and lam.length > max_length:
            continue
        rl = spec.r_lambda(lam)
        if rl:
            yield rl / Fraction(2) ** lam.length, q_lambda(lam, W)


def _diagonal_sum(terms, W, Wstar):
    """1 + sum of c f(t) f(t*) over the (c, f) in terms, as a BiSeries."""
    out = {((), ()): Fraction(1)}
    for c, f in terms:
        for mt, ct in f.terms.items():
            cct = c * ct
            for ms, cs in f.terms.items():
                key = (mt, ms)
                out[key] = out.get(key, 0) + cct * cs
    return BiSeries(W, Wstar, out)


def tau_bkp(spec, W, Wstar):
    """BKP tau function of hypergeometric type, truncated per alphabet."""
    return _diagonal_sum(tau_terms(spec, min(W, Wstar)), W, Wstar)


def tau_kp(spec, W, Wstar):
    """KP tau function of hypergeometric type at odd times."""
    bound = min(W, Wstar)

    def terms():
        for mu in enumerate_partitions(bound):
            rmu = content_product_kp(spec, mu)
            if rmu:
                yield rmu, schur_s(mu, bound)

    return _diagonal_sum(terms(), W, Wstar)


def vacuum_kernel(W, Wstar):
    """exp(sum over odd n of (n/2) t_n t*_n), truncated."""
    bound = min(W, Wstar)
    terms = {}
    for n in range(1, bound + 1, 2):
        terms[(((n, 1),), ((n, 1),))] = Fraction(n, 2)
    return BiSeries(W, Wstar, terms).exp()


def check_cauchy(W):
    """Vacuum tau function: the Q-sum equals exp(sum (n/2) t_n t*_n)."""
    from .rspec import Ones

    lhs = tau_bkp(Ones(), W, W)
    rhs = vacuum_kernel(W, W)
    return compare_series("cauchy", {"weight": W}, lhs, rhs)


def check_square(spec, W):
    """tau_bkp^2 = tau_kp coefficientwise to joint weight W."""
    t = tau_bkp(spec, W, W)
    return compare_series("square", {"r": repr(spec), "weight": W}, t * t, tau_kp(spec, W, W))


def check_symmetry_scaling(spec, a, W):
    """Alphabet swap and the (a^m, a^-m) scaling both fix tau_bkp."""
    a = Fraction(a)
    if not a:
        raise ValueError("scale must be nonzero")
    t = tau_bkp(spec, W, W)
    rep = compare_series("symmetry-swap", {"r": repr(spec), "weight": W}, t.swap(), t)
    if not rep.passed:
        return rep
    return compare_series(
        "symmetry-scaling",
        {"r": repr(spec), "weight": W, "a": str(a)},
        t.substitute_scaled(a),
        t,
    )


def substitute_tstar_tinfty(bi):
    """Collapse the t* alphabet of a BiSeries at t* = t_infinity."""
    W = bi.truncation_weight

    def image(v):
        alphabet, m = v
        return t_infinity(m) if alphabet else OddSeries.variable(W, m)

    return bi.substitute(image, OddSeries.constant(W))


def _pochhammer_ratio(a_list, b_list, poch, arg):
    """prod poch(a_k, arg) / prod poch(b_k, arg); a zero denominator is refused."""
    c = Fraction(1)
    for a in a_list:
        c *= poch(a, arg)
    for b in b_list:
        den = poch(b, arg)
        if not den:
            raise ValueError("b parameter %s is a nonpositive integer" % b)
        c /= den
    return c


def tau_hyper_tinfty(a_list, b_list, W):
    """tau_bkp for the rational Pochhammer weight with t* = t_infinity.

    1 + sum 2^{-l} Q_lambda(t/2) (1/H*_lambda) prod (a_k)_lambda / (b_k)_lambda.
    """
    a_list = [Fraction(a) for a in a_list]
    b_list = [Fraction(b) for b in b_list]
    acc = OddSeries.constant(W)
    for lam in enumerate_strict(W):
        c = _pochhammer_ratio(a_list, b_list, pochhammer_lambda, lam)
        c = c / hook_star(lam) / Fraction(2) ** lam.length
        if c:
            acc = acc + q_lambda(lam, W) * c
    return acc


def tau_symmetric_hyper(alpha, beta, W):
    """tau_bkp for the symmetric-rational weight with t* = t_infinity.

    (n - 1/2)^2 - alpha^2 = (alpha + 1/2 + n - 1)(-alpha + 1/2 + n - 1), so
    this is tau_hyper_tinfty with the parameters +-alpha + 1/2, +-beta + 1/2.
    """
    half = Fraction(1, 2)

    def shifted(values):
        return [s * Fraction(v) + half for v in values for s in (1, -1)]

    return tau_hyper_tinfty(shifted(alpha), shifted(beta), W)


def hyper_one_var(a_list, b_list, order):
    """Coefficients of the generalized hypergeometric series pFs.

    Returns [c_0..c_order] with c_n = prod (a_k)_n / prod (b_k)_n / n!.
    """
    a_list = [Fraction(a) for a in a_list]
    b_list = [Fraction(b) for b in b_list]
    return [
        _pochhammer_ratio(a_list, b_list, pochhammer, n) / factorial(n)
        for n in range(order + 1)
    ]


def tau_single_x_coefficients(spec, order):
    """[x^n] of tau_bkp at t = t(x) (one point), t* = t_infinity.

    A weight-n homogeneous t-polynomial evaluates at a single point x to
    (value at x=1) x^n, so coefficients group by t-weight.
    """
    tau_x = substitute_tstar_tinfty(tau_bkp(spec, order, order))
    one = XPoint([1])
    return [eval_at_x(tau_x.weight_component(n), one) for n in range(order + 1)]


def scalar_product_r(f, g, spec):
    """Deformed pairing sum over lambda of c_lambda(f) c_lambda(g) 2^l r_lambda.

    Includes the empty partition through the constant terms.
    """
    total = f.constant_term() * g.constant_term()
    cf = q_expand(f)
    cg = q_expand(g)
    for lam, a in cf.items():
        b = cg.get(lam)
        if b:
            total += a * b * Fraction(2) ** lam.length * spec.r_lambda(lam)
    return total


def _exp_kernel(t_values, W):
    """exp(sum (m/2) t_m gamma_m) as an OddSeries in gamma, t_m as rationals."""
    terms = {}
    for m, v in t_values.items():
        v = Fraction(v)
        if v:
            terms[((m, 1),)] = Fraction(m, 2) * v
    return OddSeries(W, terms).exp()


def check_tau_scalar(spec, W, t_values, tstar_values):
    """tau_bkp equals the r-pairing of the two exponential kernels.

    <exp(sum (m/2) t_m g_m), exp(sum (m/2) t*_m g_m)>_r = tau_r(t, t*)
    at given rational parameter values.  The left side goes through the
    differential-operator pairing (q_expand), the right side through the
    series sum; the two routes share nothing past Q_lambda itself.
    """
    f = _exp_kernel(t_values, W)
    g = _exp_kernel(tstar_values, W)
    lhs = scalar_product_r(f, g, spec)
    values = (t_values, tstar_values)
    rhs = tau_bkp(spec, W, W).substitute(
        lambda v: Fraction(values[v[0]].get(v[1], 0)), Fraction(1)
    )
    params = {
        "r": repr(spec),
        "weight": W,
        "t": {str(m): str(Fraction(v)) for m, v in t_values.items()},
        "t*": {str(m): str(Fraction(v)) for m, v in tstar_values.items()},
    }
    if lhs == rhs:
        return TauReport("tau-scalar", params, True)
    return TauReport("tau-scalar", params, False, ("<kernels>", lhs, rhs))
