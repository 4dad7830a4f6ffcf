"""Exact Pfaffian kernel and the Pfaffian representations of the tau function.

One kernel, `pfaffian`, serves both representations over any commutative
ring (Fraction, OddSeries, MultiPoly), reading the upper triangle each
builder makes; the two-alphabet check passes it what those entries owe.
The builders encode the corrected normalization: entries are twice the
pairwise expectation values, which makes Pfaff(S) equal tau * Delta(x)
Delta(y) on the nose (the power of two absorbed by Pfaff(2M) = 2^K
Pfaff(M)); that choice is certified against the series oracle, not assumed.
"""

from fractions import Fraction
from functools import cache
from math import lcm

from .gseries import GradedSeries, OddSeries, dense_codec
from .qschur import XPoint, _miwa_reader, delta
from .tau import compare_series, tau_at, tau_terms

# Not called here.  Kept because perfbench/tests checks that its tracer
# rebinds these names in this module too.
from .qschur import q_lambda  # noqa: F401
from .tau import tau_bkp  # noqa: F401


def pfaffian(upper, dim, one=Fraction(1), owed=None):
    """Pfaffian by recursive expansion along the first remaining row.

    `upper` maps every (i, j), i < j < dim, to its entry in the dim x dim
    skew matrix A.  Pfaff(A)^2 = det(A).  Sub-Pfaffians are memoized per
    call, keyed by the surviving index subset.  `owed` maps a pair (i, j),
    i < j, to the denominator its entry is held without; the result is Pfaff
    times every owed factor.  Matching `first` with j leaves (first, k) and
    (j, k) unmatched for each k in rest, so their factors are paid there.
    """
    if dim % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    owed = owed or {}

    @cache
    def pf(idx):
        if not idx:
            return one
        first = idx[0]
        acc = None
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1 :]
            term = upper[first, j] * pf(rest)
            for k in rest:
                for pair in ((first, k), (min(j, k), max(j, k))):
                    if pair in owed:
                        term = term * owed[pair]
            if pos % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return pf(tuple(range(dim)))


# Not called here: the tests' brute-force reference, and perfbench's tracer
# looks the name up in GENERATORS.
def perfect_matchings(indices):
    """Yield (sign, pairs) over all perfect matchings of the index tuple."""
    if not indices:
        yield 1, ()
        return
    first = indices[0]
    for pos in range(1, len(indices)):
        j = indices[pos]
        rest = indices[1:pos] + indices[pos + 1 :]
        sign = -1 if pos % 2 == 0 else 1
        for s, pairs in perfect_matchings(rest):
            yield sign * s, ((first, j),) + pairs


def det_fraction_free(rows):
    """Determinant of a rational matrix by Bareiss fraction-free elimination."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class MultiPoly(GradedSeries):
    """Sparse multivariate polynomial with a total-degree cutoff.

    A monomial is a tuple of nvars exponents, packed by `DenseCodec`.
    """

    __slots__ = ()

    def __init__(self, nvars, cutoff, terms=None):
        super().__init__(dense_codec(nvars, cutoff), terms)

    __mul__ = __rmul__ = GradedSeries.__mul__

    @property
    def nvars(self):
        return len(self.codec.fields)

    @property
    def cutoff(self):
        return self.caps[0]

    @classmethod
    def constant(cls, nvars, cutoff, value=1):
        return cls(nvars, cutoff, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, cutoff, index, power=1):
        if not 0 <= index < nvars:
            raise ValueError("no variable x_%s among x_0..x_%d" % (index, nvars - 1))
        mono = tuple(power if k == index else 0 for k in range(nvars))
        return cls(nvars, cutoff, {mono: 1})


def _sum_power_series(spec, xk, ym, nvars, D):
    """Cross-block entry 1 + 2 sum_{n>=1} r(1)...r(n) x_k^n y_m^n.

    x_k^n y_m^n has degree 2n, so only n <= D // 2 survives the cutoff.
    """
    terms = {(0,) * nvars: Fraction(1)}
    for n in range(1, D // 2 + 1):
        c = 2 * spec.r_prefix(n)
        if not c:
            continue
        mono = tuple(n if k in (xk, ym) else 0 for k in range(nvars))
        terms[mono] = c
    return MultiPoly(nvars, D, terms)


def build_S(spec, N, D):
    """The 2N x 2N two-alphabet matrix's upper triangle, and what it owes.

    Variables are the symbolic alphabets x_1..x_N, y_1..y_N in that order,
    and entries are polynomials to total degree D.  A diagonal-block entry
    holds only its numerator; `owed` maps its row pair to its (x_k + x_m)
    denominator.  Cross-block entries are genuine polynomials.
    """
    nvars = 2 * N

    def var(k):
        return MultiPoly.variable(nvars, D, k)

    # rows 0..N-1 hold the x alphabet in reversed order x_N, ..., x_1 and
    # rows N..2N-1 hold y_1, ..., y_N; this ordering makes the diagonal
    # blocks reproduce Delta(x) and Delta(y) with the right signs.
    def xv(row):
        return N - 1 - row

    upper, owed = {}, {}
    for k in range(N):
        for m in range(k + 1, N):
            upper[(k, m)] = var(xv(m)) - var(xv(k))
            owed[(k, m)] = var(xv(m)) + var(xv(k))
            upper[(N + k, N + m)] = var(N + k) - var(N + m)
            owed[(N + k, N + m)] = var(N + k) + var(N + m)
    for k in range(N):
        for m in range(N):
            upper[(k, N + m)] = _sum_power_series(spec, xv(k), N + m, nvars, D)
    return upper, owed


def _vandermonde_numerator(N, nvars, cutoff, offset):
    """prod_{k<m} (v_k - v_m) over one alphabet."""
    acc = MultiPoly.constant(nvars, cutoff)
    for k in range(N):
        for m in range(k + 1, N):
            acc = acc * (
                MultiPoly.variable(nvars, cutoff, offset + k)
                - MultiPoly.variable(nvars, cutoff, offset + m)
            )
    return acc


_ALPHABET_READERS = {}  # (N, W, cutoff) -> the x and y `_miwa_reader`s
_VANDERMONDES = {}  # (N, D) -> V(x) V(y) in 2N variables to degree D


def _vandermonde_xy(N, D):
    """V(x) V(y), the product of the two alphabets' Vandermonde numerators,
    kept per (N, D)."""
    vv = _VANDERMONDES.get((N, D))
    if vv is None:
        x, y = (_vandermonde_numerator(N, 2 * N, D, offset) for offset in (0, N))
        vv = _VANDERMONDES[(N, D)] = x * y
    return vv


def tau_as_multipoly(spec, N, cutoff, degree=None):
    """tau_bkp with t = t(x), t* = t(y) substituted, as a polynomial in x, y
    to total degree cutoff, read to degree `degree` (default cutoff; below
    0, tau reads as 1).  Each Q_lambda is read off one table of MultiPoly
    values per alphabet, kept per (N, W, cutoff), and the terms are summed
    in integers over the lcm of their denominators.
    """
    nvars, W = 2 * N, max(cutoff if degree is None else degree, 0) // 2
    one = MultiPoly.constant(nvars, cutoff)
    readers = _ALPHABET_READERS.get((N, W, cutoff))
    if readers is None:

        def power_sum(xs):
            return lambda m: (sum(MultiPoly.variable(nvars, cutoff, v, m) for v in xs), 1)

        readers = [_miwa_reader(power_sum(xs), W, one) for xs in (range(N), range(N, nvars))]
        _ALPHABET_READERS[(N, W, cutoff)] = readers
    at_x, at_y = readers
    scaled = []
    for n, d, q in tau_terms(spec, W, max_length=N):
        (a, da), (b, db) = at_x(q), at_y(q)
        scaled.append((n, d * da * a.den * db * b.den, a.num, b.num))
    L = lcm(1, *(d for _, d, _, _ in scaled))
    out = {0: L}  # the constant 1
    for k, d, xs, ys in scaled:
        k *= L // d
        for kx, u in xs.items():  # disjoint variables, degree |lambda| each
            for ky, v in ys.items():
                out[kx + ky] = out.get(kx + ky, 0) + k * u * v
    return one._like(out, L)


def two_alphabet_floor(N):
    """The lowest degree at which the two-alphabet check can see r.

    Both sides have degree at least N(N-1) and tau - 1 has degree at least
    2, so below N(N-1)+2 both sides are 0 or prod(x_i-x_j)(y_i-y_j)
    whatever r is.
    """
    return N * (N - 1) + 2


def check_two_alphabet_pfaffian(spec, N, D):
    """Cleared-denominator form of the two-alphabet Pfaffian identity.

    Pfaff(S) prod(x_i+x_j)(y_i+y_j) = tau(x, y) prod(x_i-x_j)(y_i-y_j),
    compared coefficientwise as polynomials to total degree D; the left
    side is `pfaffian` of build_S's matrix with its owed denominators.  The
    Vandermonde product V(x) V(y), kept across specs, has degree N(N-1),
    so tau is read only to degree D - N(N-1), off readers kept across specs
    too.  It takes any D, but below two_alphabet_floor(N) it passes
    whatever r is, so the pfaffian-check command refuses such a D.
    """
    nvars = 2 * N
    S, owed = build_S(spec, N, D)
    lhs = pfaffian(S, 2 * N, MultiPoly.constant(nvars, D), owed)

    rhs = tau_as_multipoly(spec, N, D, D - N * (N - 1)) * _vandermonde_xy(N, D)

    params = {"r": repr(spec), "N": N, "degree": D}
    return compare_series("pfaffian-two-alphabet", params, lhs, rhs, str)


def tau_at_xpoint(spec, x, W):
    """tau_bkp with t at the points of x, `tau_at` at their power sums: an
    OddSeries in t*, where only partitions of length <= len(x) survive."""
    return tau_at(spec, lambda m: sum(v ** m for v in x.values).as_integer_ratio(), W, len(x))


def build_R(x, spec, W):
    """Upper triangle of the one-alphabet Pfaffian formula's matrix R.

    R_ik = (x_i - x_k)/(x_i + x_k) tau_r(t(x_i, x_k), t*) as OddSeries in t*;
    odd N gets a border column N of one-point tau functions.
    """
    delta(x)  # refuses a vanishing x_i + x_k, named by its indices in x
    N = len(x)
    vals = x.values
    upper = {}
    for i in range(N):
        for k in range(i + 1, N):
            pair = XPoint([vals[i], vals[k]])
            upper[(i, k)] = tau_at_xpoint(spec, pair, W) * delta(pair)
    if N % 2:
        for i in range(N):
            upper[(i, N)] = tau_at_xpoint(spec, XPoint([vals[i]]), W)
    return upper


def check_xpoint_pfaffian(spec, x, W):
    """Pfaff(R)/Delta(x) against the series with t specialized at all of x."""
    R = build_R(x, spec, W)
    lhs = pfaffian(R, len(x) + len(x) % 2, OddSeries.constant(W)) * (1 / delta(x))
    rhs = tau_at_xpoint(spec, x, W)
    params = {
        "r": repr(spec),
        "N": len(x),
        "weight": W,
        "x": [str(v) for v in x.values],
    }
    return compare_series(
        "pfaffian-one-alphabet", params, lhs, rhs, lambda m: str(dict(m))
    )
