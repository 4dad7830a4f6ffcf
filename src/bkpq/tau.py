"""BKP and KP hypergeometric tau-function series and the identity checks.

tau_r(t, t*) = 1 + sum over nonzero strict partitions of
2^{-l} r_lambda Q_lambda(t/2) Q_lambda(t*/2).  Every check compares
truncated series coefficientwise and reports the first failing monomial.
"""

from fractions import Fraction
from math import factorial

from .gseries import BiSeries, OddSeries, mono_weight
from .partitions import StrictPartition, enumerate_partitions, enumerate_strict
from .qschur import (
    XPoint,
    eval_at_tinfty,
    eval_at_x,
    h_k,
    q_expand,
    q_lambda,
    scalar_product,
    schur_s,
)
from .rspec import hook_star, pochhammer, pochhammer_lambda


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


def tau_bkp(spec, W, Wstar):
    """BKP tau function of hypergeometric type, truncated per alphabet."""
    terms = {((), ()): Fraction(1)}
    bound = min(W, Wstar)
    for lam in enumerate_strict(bound):
        rl = spec.r_lambda(lam)
        if not rl:
            continue
        weight = rl / Fraction(2) ** lam.length
        q = q_lambda(lam, bound)
        for mt, ct in q.terms.items():
            for ms, cs in q.terms.items():
                key = (mt, ms)
                terms[key] = terms.get(key, Fraction(0)) + weight * ct * cs
    return BiSeries(W, Wstar, terms)


def tau_kp(spec, W, Wstar):
    """KP tau function of hypergeometric type at odd times."""
    from .rspec import content_product_kp

    terms = {((), ()): Fraction(1)}
    bound = min(W, Wstar)
    for mu in enumerate_partitions(bound):
        rmu = content_product_kp(spec, mu)
        if not rmu:
            continue
        s = schur_s(mu, bound)
        for mt, ct in s.terms.items():
            for ms, cs in s.terms.items():
                key = (mt, ms)
                terms[key] = terms.get(key, Fraction(0)) + rmu * ct * cs
    return BiSeries(W, Wstar, terms)


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
    """Collapse the t* alphabet of a BiSeries at t* = (1, 0, 0, ...)."""
    terms = {}
    for (mt, ms), c in bi.terms.items():
        if all(m == 1 for m, _ in ms):
            terms[mt] = terms.get(mt, Fraction(0)) + c
    return OddSeries(bi.truncation_weight, terms)


def tau_hyper_tinfty(a_list, b_list, W):
    """tau_bkp for the rational Pochhammer weight with t* = t_infinity.

    1 + sum 2^{-l} Q_lambda(t/2) (1/H*_lambda) prod (a_k)_lambda / (b_k)_lambda.
    """
    a_list = [Fraction(a) for a in a_list]
    b_list = [Fraction(b) for b in b_list]
    acc = OddSeries.constant(W)
    for lam in enumerate_strict(W):
        c = Fraction(1) / hook_star(lam) / Fraction(2) ** lam.length
        for a in a_list:
            c *= pochhammer_lambda(a, lam)
        for b in b_list:
            c /= pochhammer_lambda(b, lam)
        if c:
            acc = acc + q_lambda(lam, W) * c
    return acc


def tau_symmetric_hyper(alpha, beta, W):
    """tau_bkp for the symmetric-rational weight with t* = t_infinity."""
    alpha = [Fraction(a) for a in alpha]
    beta = [Fraction(b) for b in beta]
    half = Fraction(1, 2)
    acc = OddSeries.constant(W)
    for lam in enumerate_strict(W):
        c = Fraction(1) / hook_star(lam) / Fraction(2) ** lam.length
        for a in alpha:
            c *= pochhammer_lambda(a + half, lam) * pochhammer_lambda(-a + half, lam)
        for b in beta:
            c /= pochhammer_lambda(b + half, lam) * pochhammer_lambda(-b + half, lam)
        if c:
            acc = acc + q_lambda(lam, W) * c
    return acc


def hyper_one_var(a_list, b_list, order):
    """Coefficients of the generalized hypergeometric series pFs.

    Returns [c_0..c_order] with c_n = prod (a_k)_n / prod (b_k)_n / n!.
    """
    a_list = [Fraction(a) for a in a_list]
    b_list = [Fraction(b) for b in b_list]
    out = []
    for n in range(order + 1):
        c = Fraction(1, factorial(n))
        for a in a_list:
            c *= pochhammer(a, n)
        for b in b_list:
            poch = pochhammer(b, n)
            if not poch:
                raise ValueError("b parameter %s is a nonpositive integer" % b)
            c /= poch
        out.append(c)
    return out


def tau_single_x_coefficients(spec, order):
    """[x^n] of tau_bkp at t = t(x) (one point), t* = t_infinity.

    A weight-n homogeneous t-polynomial evaluates at a single point x to
    (value at x=1) x^n, so coefficients group by t-weight.
    """
    bi = tau_bkp(spec, order, order)
    one = XPoint([Fraction(1)])
    out = [Fraction(0)] * (order + 1)
    for (mt, ms), c in bi.terms.items():
        w = mono_weight(mt)
        if w > order or any(m != 1 for m, _ in ms):
            continue
        val = Fraction(1)
        for m, e in mt:
            val *= Fraction(2, m) ** e
        out[w] += c * val
    return out


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


def _eval_bi(bi, t_values, tstar_values):
    total = Fraction(0)
    for (mt, ms), c in bi.terms.items():
        for m, e in mt:
            c *= Fraction(t_values.get(m, 0)) ** e
        for m, e in ms:
            c *= Fraction(tstar_values.get(m, 0)) ** e
        total += c
    return total


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
    rhs = _eval_bi(tau_bkp(spec, W, W), t_values, tstar_values)
    params = {
        "r": repr(spec),
        "weight": W,
        "t": {str(m): str(Fraction(v)) for m, v in t_values.items()},
        "t*": {str(m): str(Fraction(v)) for m, v in tstar_values.items()},
    }
    if lhs == rhs:
        return TauReport("tau-scalar", params, True)
    return TauReport("tau-scalar", params, False, ("<kernels>", lhs, rhs))
