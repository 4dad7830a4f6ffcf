"""Projective Schur functions Q_lambda and ordinary Schur functions s_mu.

Everything lives in the odd times: even times are identically zero, so the
complete homogeneous h_k and the one-row q_k share a single generating
function e^{sum t_m z^m}.  Q_lambda(t/2) is treated as a single named
polynomial in t_1, t_3, ...; no half-variable object exists.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .gseries import OddSeries
from .partitions import _parts_of_weight, conjugate, enumerate_strict


class XPoint:
    """A finite list of nonzero rational evaluation points x_1..x_N."""

    __slots__ = ("values",)

    def __init__(self, values, require_distinct_abs=False):
        vals = tuple(Fraction(v) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("x values must be nonzero")
        if require_distinct_abs:
            seen = set()
            for v in vals:
                if abs(v) in seen:
                    raise ValueError("|x_i| must be pairwise distinct")
                seen.add(abs(v))
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("XPoint is immutable")

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return "XPoint(%r)" % (list(self.values),)


@lru_cache(maxsize=None)
def _h_table(W):
    """h_0..h_W of e^{sum_{odd m} t_m z^m}, each weight-homogeneous.

    Recurrence k h_k = sum_{odd m <= k} m t_m h_{k-m}.
    """
    table = [OddSeries.constant(W)]
    for k in range(1, W + 1):
        acc = OddSeries(W)
        for m in range(1, k + 1, 2):
            acc = acc + OddSeries.variable(W, m) * table[k - m] * Fraction(m)
        table.append(acc * Fraction(1, k))
    return tuple(table)


def h_k(k, W):
    """Complete homogeneous symmetric function at odd times, h_k(t_1,0,t_3,...)."""
    if k < 0:
        return OddSeries(W)
    if k > W:
        raise ValueError("h_%d exceeds truncation weight %d" % (k, W))
    return _h_table(W)[k]


def q_row(n, W):
    """One-row projective Schur function Q_(n)(t/2) = [z^n] e^{xi(t,z)}."""
    if n > W:
        raise ValueError("row weight %d exceeds truncation %d" % (n, W))
    return h_k(n, W)


@lru_cache(maxsize=None)
def _q_two_row(a, b, W):
    """Two-row block Q_(a,b)(t/2), antisymmetric in (a, b)."""
    if a == b:
        return OddSeries(W)
    if a < b:
        return -_q_two_row(b, a, W)
    acc = q_row(a, W) * q_row(b, W) if b > 0 else q_row(a, W)
    for i in range(1, b + 1):
        term = q_row(a + i, W) * q_row(b - i, W) * Fraction(2 * (-1) ** i)
        acc = acc + term
    return acc


@lru_cache(maxsize=None)
def _q_lambda_cached(parts, W):
    if not parts:
        return OddSeries.constant(W)
    padded = parts if len(parts) % 2 == 0 else parts + (0,)
    k = len(padded)
    if k == 2:
        return _q_two_row(padded[0], padded[1], W)
    from .pfaffian import SkewMatrix, pfaffian  # pfaffian imports this module

    upper = {
        (i, j): _q_two_row(padded[i], padded[j], W)
        for i in range(k)
        for j in range(i + 1, k)
    }
    return pfaffian(SkewMatrix(k, upper, OddSeries(W)), one=OddSeries.constant(W))


def q_lambda(lam, W):
    """Q_lambda(t/2) via the classical Pfaffian recursion over two-row blocks."""
    if lam.weight > W:
        raise ValueError("partition weight %d exceeds truncation %d" % (lam.weight, W))
    return _q_lambda_cached(lam.parts, W)


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


@lru_cache(maxsize=None)
def _schur_cached(parts, W):
    """s_parts = sum over odd cycle types rho of chi^parts_rho prod_m t_m^e_m / e_m!.

    With h_k = [z^k] e^{sum t_m z^m} the power sums are p_m = m t_m, so the
    z_rho of the character expansion leaves prod_m e_m! (Macdonald, I.7);
    even times are zero, so only the rho with odd parts remain.  The terms
    are summed in integers over the lcm of those factorials.
    """
    classes = _odd_classes(sum(parts))
    L = lcm(1, *(d for _, _, d in classes))
    num = {mono: _character(parts, rho) * (L // d) for rho, mono, d in classes}
    return OddSeries(W)._like(num, L)


def schur_s(mu, W):
    """Schur function s_mu(t_1, 0, t_3, 0, ...) by the Murnaghan-Nakayama rule.

    At odd times the involution omega fixes every power sum, so s_mu equals
    s_mu' (Macdonald, Symmetric Functions, I.2-I.3); the characters are
    taken on whichever of mu and mu' has fewer rows (mu on a tie).
    """
    if mu.weight > W:
        raise ValueError("partition weight %d exceeds truncation %d" % (mu.weight, W))
    parts = mu.parts
    conj = conjugate(mu).parts
    return _schur_cached(conj if len(conj) < len(parts) else parts, W)


def miwa(power_sum):
    """The Miwa map t_m = (2/m) p_m, as an image for GradedSeries.substitute.

    power_sum(m) is the m-th power sum p_m of the points in the target ring.
    """
    return lambda m: power_sum(m) * Fraction(2, m)


def t_infinity(m):
    """The principal specialization t_infinity: t_1 = 1, t_m = 0 for m > 1."""
    return Fraction(m == 1)


def eval_at_x(a, x):
    """Substitute t_m = (2/m) sum_k x_k^m into an OddSeries; exact rational."""
    return a.substitute(miwa(lambda m: sum(v ** m for v in x.values)), Fraction(1))


def eval_at_tinfty(a):
    """Substitute t = t_infinity into an OddSeries."""
    return a.substitute(t_infinity, Fraction(1))


def delta(x):
    """The BKP Vandermonde analogue prod_{i<j} (x_i - x_j)/(x_i + x_j)."""
    vals = x.values
    out = Fraction(1)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            den = vals[i] + vals[j]
            if den == 0:
                raise ZeroDivisionError("x_%d + x_%d vanishes" % (i + 1, j + 1))
            out *= (vals[i] - vals[j]) / den
    return out


def scalar_product(f, g):
    """<f, g> = f applied as differential operators (t_m -> (2/m) d/dt_m) to g at 0.

    On matching monomials the pairing contributes prod_m e_m! (2/m)^{e_m},
    kept as the integer pair (prod e_m! 2^{e_m}, prod m^{e_m}); the terms are
    summed over the lcm of those denominators.
    """
    if f.truncation_weight != g.truncation_weight:
        raise ValueError("truncation mismatch")
    g_num = g.num
    terms = []
    for mono, a in f.num.items():
        b = g_num.get(mono)
        if not b:
            continue
        up = down = 1
        for m, e in mono:
            up *= factorial(e) << e
            down *= m ** e
        terms.append((a * b * up, down))
    L = lcm(1, *(d for _, d in terms))
    return Fraction(sum(n * (L // d) for n, d in terms), L * f.den * g.den)


def q_expand(f):
    """Expand f over the Q_lambda basis: c_lambda = 2^{-l} <Q_lambda, f>.

    Returns only the nonzero coefficients on nonzero strict partitions; the
    constant term of f is the coefficient of Q_0 = 1.
    """
    W = f.truncation_weight
    out = {}
    for lam in enumerate_strict(W):
        c = scalar_product(q_lambda(lam, W), f) / Fraction(2) ** lam.length
        if c:
            out[lam] = c
    return out
