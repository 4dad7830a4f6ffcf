"""Exact Pfaffian kernel and the Pfaffian representations of the tau function.

The kernel works over any commutative coefficient ring (Fraction, OddSeries,
MultiPoly).  The matrix builders encode the corrected normalization: entries
are twice the pairwise expectation values, which makes Pfaff(S) equal
tau * Delta(x) Delta(y) on the nose (the power of two absorbed by
Pfaff(2M) = 2^K Pfaff(M)); that choice is certified against the series
oracle, not assumed.
"""

from fractions import Fraction
from operator import add

from .gseries import GradedSeries, OddSeries
from .qschur import XPoint, delta, eval_at_x, miwa
from .tau import compare_series, tau_terms

# Not called here.  Kept because perfbench/tests checks that its tracer
# rebinds these names in this module too.
from .qschur import q_lambda  # noqa: F401
from .tau import tau_bkp  # noqa: F401


class SkewMatrix:
    """Even-dimensional skew-symmetric matrix; upper triangle given."""

    def __init__(self, dim, upper, zero=Fraction(0)):
        """upper maps (i, j) with i < j to a ring element."""
        self.dim = dim
        self.zero = zero
        self.upper = dict(upper)

    def entry(self, i, j):
        if i == j:
            return self.zero
        if i < j:
            return self.upper.get((i, j), self.zero)
        return -self.upper.get((j, i), self.zero)


def pfaffian(A, one=Fraction(1)):
    """Pfaffian via recursive expansion along the first remaining row.

    Pfaff(A)^2 = det(A).  Sub-Pfaffians are memoized per call, keyed by
    the surviving index subset.
    """
    if A.dim % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    memo = {}

    def pf(idx):
        if not idx:
            return one
        if idx in memo:
            return memo[idx]
        first = idx[0]
        acc = None
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1 :]
            term = A.entry(first, j) * pf(rest)
            if pos % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        memo[idx] = acc
        return acc

    return pf(tuple(range(A.dim)))


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

    A monomial is a tuple of nvars exponents.
    """

    __slots__ = ()

    def __init__(self, nvars, cutoff, terms=None):
        super().__init__((cutoff,), (0,) * nvars, terms)

    @staticmethod
    def grade(mono):
        return (sum(mono),)

    @staticmethod
    def mono_mul(a, b):
        return tuple(map(add, a, b))

    __mul__ = __rmul__ = GradedSeries.__mul__

    @property
    def nvars(self):
        return len(self.unit)

    @property
    def cutoff(self):
        return self.caps[0]

    @classmethod
    def constant(cls, nvars, cutoff, value=1):
        return cls(nvars, cutoff, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, cutoff, index, power=1):
        mono = tuple(power if k == index else 0 for k in range(nvars))
        return cls(nvars, cutoff, {mono: 1})

    def __repr__(self):
        return "MultiPoly(nvars=%d, cutoff=%d, %d terms)" % (
            self.nvars,
            self.cutoff,
            len(self.terms),
        )


class ClearedEntry:
    """A matrix entry num / prod(factors), factors drawn from a fixed pool."""

    __slots__ = ("num", "den_factors")

    def __init__(self, num, den_factors=()):
        self.num = num
        self.den_factors = tuple(den_factors)


def _sum_power_series(spec, xk, ym, n_cut, nvars, cutoff):
    """Cross-block entry 1 + 2 sum_{n>=1} r(1)...r(n) x_k^n y_m^n."""
    terms = {(0,) * nvars: Fraction(1)}
    for n in range(1, n_cut + 1):
        c = 2 * spec.r_prefix(n)
        if not c:
            continue
        mono = tuple(
            n if k in (xk, ym) else 0 for k in range(nvars)
        )
        terms[mono] = c
    return MultiPoly(nvars, cutoff, terms)


def build_S(spec, N, n_cut, cutoff=None):
    """The 2N x 2N pair-correlation matrix of the two-alphabet Pfaffian formula.

    Variables are the symbolic alphabets x_1..x_N, y_1..y_N in that order.
    Diagonal-block entries carry their (x_k + x_m) denominators symbolically
    (cleared in check_two_alphabet_pfaffian); cross-block entries are genuine polynomials.
    """
    nvars = 2 * N
    if cutoff is None:
        cutoff = 2 * n_cut

    def var(k):
        return MultiPoly.variable(nvars, cutoff, k)

    # rows 0..N-1 hold the x alphabet in reversed order x_N, ..., x_1 and
    # rows N..2N-1 hold y_1, ..., y_N; this ordering makes the diagonal
    # blocks reproduce Delta(x) and Delta(y) with the right signs.
    def xv(row):
        return N - 1 - row

    upper = {}
    for k in range(N):
        for m in range(k + 1, N):
            a, b = xv(k), xv(m)
            upper[(k, m)] = ClearedEntry(var(b) - var(a), (("x", min(a, b), max(a, b)),))
            upper[(N + k, N + m)] = ClearedEntry(
                var(N + k) - var(N + m), (("y", k, m),)
            )
    for k in range(N):
        for m in range(N):
            upper[(k, N + m)] = ClearedEntry(
                _sum_power_series(spec, xv(k), N + m, n_cut, nvars, cutoff)
            )
    zero = ClearedEntry(MultiPoly(nvars, cutoff))
    return SkewMatrix(2 * N, upper, zero)


def _clearing_factors(N, nvars, cutoff):
    """Factor pool: ("x", k, m) -> x_k + x_m and the y analogue."""
    out = {}
    for k in range(N):
        for m in range(k + 1, N):
            out[("x", k, m)] = MultiPoly.variable(nvars, cutoff, k) + MultiPoly.variable(
                nvars, cutoff, m
            )
            out[("y", k, m)] = MultiPoly.variable(
                nvars, cutoff, N + k
            ) + MultiPoly.variable(nvars, cutoff, N + m)
    return out


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


def tau_as_multipoly(spec, N, cutoff):
    """tau_bkp with t = t(x), t* = t(y) substituted, as a polynomial in x, y."""
    nvars = 2 * N
    one = MultiPoly.constant(nvars, cutoff)

    def alphabet(offset):
        zero = MultiPoly(nvars, cutoff)
        return miwa(
            lambda m: sum(
                (MultiPoly.variable(nvars, cutoff, offset + k, m) for k in range(N)), zero
            )
        )

    t_x, t_y = alphabet(0), alphabet(N)
    acc = one
    for c, q in tau_terms(spec, cutoff // 2, max_length=N):
        acc = acc + q.substitute(t_x, one) * q.substitute(t_y, one) * c
    return acc


def check_two_alphabet_pfaffian(spec, N, D):
    """Cleared-denominator form of the two-alphabet Pfaffian identity.

    Pfaff(S) prod(x_i+x_j)(y_i+y_j) = tau(x, y) prod(x_i-x_j)(y_i-y_j),
    compared coefficientwise as polynomials to total degree D.
    """
    nvars = 2 * N
    S = build_S(spec, N, D, cutoff=D)
    factors = _clearing_factors(N, nvars, D)

    lhs = MultiPoly(nvars, D)
    for sign, pairs in perfect_matchings(tuple(range(2 * N))):
        num = MultiPoly.constant(nvars, D, sign)
        used = set()
        for (i, j) in pairs:
            e = S.entry(i, j)
            num = num * e.num
            used.update(e.den_factors)
        for key, factor in factors.items():
            if key not in used:
                num = num * factor
        lhs = lhs + num

    rhs = tau_as_multipoly(spec, N, D)
    rhs = rhs * _vandermonde_numerator(N, nvars, D, 0)
    rhs = rhs * _vandermonde_numerator(N, nvars, D, N)

    params = {"r": repr(spec), "N": N, "degree": D}
    return compare_series("pfaffian-two-alphabet", params, lhs, rhs, str)


def tau_at_xpoint(spec, x, W):
    """tau_bkp with the t alphabet evaluated at the points of x.

    Returns an OddSeries in t*; only partitions of length <= len(x) survive.
    """
    acc = OddSeries.constant(W)
    for c, q in tau_terms(spec, W, max_length=len(x)):
        val = eval_at_x(q, x)
        if val:
            acc = acc + q * (c * val)
    return acc


def build_R(x, spec, W):
    """Pair-correlation matrix of the one-alphabet Pfaffian formula.

    R_ik = (x_i - x_k)/(x_i + x_k) tau_r(t(x_i, x_k), t*) as OddSeries in t*;
    odd N gets a border row/column of one-point tau functions.
    """
    N = len(x)
    vals = x.values
    dim = N if N % 2 == 0 else N + 1
    upper = {}
    for i in range(N):
        for k in range(i + 1, N):
            den = vals[i] + vals[k]
            if den == 0:
                raise ZeroDivisionError("x_%d + x_%d vanishes" % (i + 1, k + 1))
            pref = (vals[i] - vals[k]) / den
            upper[(i, k)] = tau_at_xpoint(spec, XPoint([vals[i], vals[k]]), W) * pref
    if dim == N + 1:
        for i in range(N):
            upper[(i, N)] = tau_at_xpoint(spec, XPoint([vals[i]]), W)
    return SkewMatrix(dim, upper, OddSeries(W))


def check_xpoint_pfaffian(spec, x, W):
    """Pfaff(R)/Delta(x) against the series with t specialized at all of x."""
    R = build_R(x, spec, W)
    lhs = pfaffian(R, one=OddSeries.constant(W)) * (1 / delta(x))
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
