"""BKP and KP hypergeometric tau-function series and the identity checks.

tau_r(t, t*) = 1 + sum over nonzero strict partitions of
2^{-l} r_lambda Q_lambda(t/2) Q_lambda(t*/2).  Every check compares
truncated series coefficientwise and reports the first failing monomial.

The lambda and their Q_lambda come from `qschur._strict_table`, kept per cap:
`tau_terms` walks it for every tau sum, and the r-pairing its weight blocks.
"""

from fractions import Fraction
from itertools import compress
from math import factorial, gcd, lcm
from operator import mul

from .gseries import BiSeries, OddSeries, _fill, bi_codec, odd_codec
from .partitions import conjugate, enumerate_partitions
from .qschur import _indexed, _miwa_reader, _numbering, _strict_table, schur_s
from .rspec import Ones, RationalPS, content_product_kp

# Not called here.  Kept because perfbench/tests checks that its tracer
# rebinds this name in this module too.
from .qschur import q_lambda  # noqa: F401


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
    """(n, d, Q_lambda(t/2)) with n / d = 2^{-l} r_lambda, over the nonzero
    strict partitions of weight <= W, and length <= max_length if given,
    with r_lambda != 0.

    n / d is `r_lambda_pair` with its denominator times 2^l, left
    unreduced: the pair multiplies the prefixes' numerators and
    denominators part by part, so factors of any prime may cancel, and every
    sum of these terms reduces once at its end.  Q_lambda is truncated at
    W.  tau_r is 1 plus the sum of these terms with Q_lambda(t*/2) as a
    third factor.  One walk of `qschur._strict_table(W)`, in
    `enumerate_strict` order, the length filtered as it goes.
    """
    r_lambda_pair = spec.r_lambda_pair
    for entries, _, _ in _strict_table(W):
        for lam, l, q, _ in entries:
            if max_length is None or l <= max_length:
                n, d = r_lambda_pair(lam)
                if n:
                    yield n, d << l, q


_BLOCK_KEYS = {}  # (w, W, Wstar) -> (triangle keys, mirror keys)


def _block_keys(w, W, Wstar):
    """The (t, t*) keys of the cells i <= j of the weight-w block, in the
    order `_diagonal_sum` fills them: column by column, j = 0, 1, ..., and
    each column's cells i = 0..j; and the keys of their mirror cells (j, i).
    Cell (i, j) pairs the i-th monomial of `_numbering(w, W)` with the j-th
    of `_numbering(w, Wstar)`: both number the monomials of weight w in one
    order."""
    keys = _BLOCK_KEYS.get((w, W, Wstar))
    if keys is None:
        shift = bi_codec(W, Wstar).shift
        t = _numbering(w, W)[0]
        star = [k << shift for k in _numbering(w, Wstar)[0]]
        cells = [(i, j) for j in range(len(t)) for i in range(j + 1)]
        keys = _BLOCK_KEYS[(w, W, Wstar)] = (
            [t[i] + star[j] for i, j in cells],
            [t[j] + star[i] for i, j in cells],
        )
    return keys


def _diagonal_sum(terms, W, Wstar):
    """1 + sum of (n / d) f(t) f(t*) over the (n, d, f) in terms, as a
    canonical BiSeries; d > 0, and n / d need not be in lowest terms.

    Summed in integers: term (n, d, f) is n f.num f.num over d f.den^2, and
    every term is scaled to the lcm L of those denominators, so n / d is
    read as it comes.  Every f is weight-homogeneous and truncated at
    min(W, Wstar), so a term touches one weight block and every product
    lies within the caps.  A block is the Gram matrix sum k a a^T of its f,
    so it is symmetric: each f comes as sorted (index, numerator) pairs over
    its weight's one numbering (`_indexed`), and only the cells i <= j are
    summed, each column j packed in one int of s-bit slots, cell (i, j) in
    slot i (Kronecker substitution).  s is the sum of the bit lengths of
    the block's largest |k|, of its largest |numerator| twice, and of its
    number of terms, plus 1, so every cell lies in (-2^{s-1}, 2^{s-1}).  One
    walk of a term's pairs keeps `seen`, the packed k a of those already
    seen: pair (j, b) adds its own slot to it, then b times it into column
    j, so one big-int multiply-add per nonzero pair fills the cells (i, j)
    of every seen (i, a), itself included.  A column's j + 1 slots are read
    from low to high as signed s-bit values, a negative one borrowing 1 from
    the slot above, so nothing is left after slot j.  The sum is reduced on
    the triangles: with g the gcd of L and every triangle
    value, each nonzero value over g is written at its key t_i t*_j and at
    the mirror key t_j t*_i (a diagonal cell twice), over L / g, the
    canonical form; a cell can cancel, as every off-diagonal one of Ones'
    tau does.  check_symmetry_scaling, which reads each value
    at its mirrored key, pins the mirror; the triangle's values are pinned
    by every check that compares tau with another route.
    """
    scaled = [(n, d * f.den * f.den, _indexed(f)) for n, d, f in terms]
    L = lcm(1, *(d for _, d, _ in scaled))
    blocks = {}  # weight -> [(k, pairs, bit length of the largest |numerator|)]
    for k, d, (w, pairs, bits) in scaled:
        blocks.setdefault(w, []).append((k * (L // d), pairs, bits))
    g, cells = L, []  # cells: (triangle keys, mirror keys, values) per block
    for w, fs in blocks.items():
        s = max(abs(k) for k, _, _ in fs).bit_length() + 2 * max(b for _, _, b in fs)
        s += len(fs).bit_length() + 1
        cols = [0] * len(_numbering(w, min(W, Wstar))[0])
        for k, pairs, _ in fs:
            seen = 0
            for j, b in pairs:
                seen += k * b << s * j
                cols[j] += b * seen
        mask, half, values = (1 << s) - 1, 1 << (s - 1), []
        for j, c in enumerate(cols):
            for _ in range(j + 1):
                v = c & mask
                if v >= half:
                    v -= 1 << s
                values.append(v)
                c = (c - v) >> s
        g = gcd(g, *values)
        cells.append((*_block_keys(w, W, Wstar), values))
    out = {0: 0}  # a constant f's cell, then the constant 1 added below
    for triangle, mirror, values in cells:
        kept = [v // g for v in compress(values, values)]
        out.update(zip(compress(triangle, values), kept))
        out.update(zip(compress(mirror, values), kept))
    out[0] += L // g
    if not out[0]:  # a constant f cancelled the 1
        del out[0]
    return _fill(object.__new__(BiSeries), out, L // g, bi_codec(W, Wstar))


def tau_bkp(spec, W, Wstar):
    """BKP tau function of hypergeometric type, truncated per alphabet.

    Kept on the spec per (W, Wstar), as r_value keeps r(n): the checks of
    one spec share one build, and a failed build is not kept.
    """
    built = spec.__dict__.setdefault("_tau_bkp", {})
    t = built.get((W, Wstar))
    if t is None:
        t = built[(W, Wstar)] = _diagonal_sum(tau_terms(spec, min(W, Wstar)), W, Wstar)
    return t


_CONJUGATE_PAIRS = {}  # bound -> [(mu, mu')] with mu >= mu', one per pair


def tau_kp(spec, W, Wstar):
    """KP tau function of hypergeometric type at odd times.

    There s_mu = s_mu', so each conjugate pair, found once per bound, is one
    term on its larger shape, weighted r_mu + r_mu' (r_mu if mu = mu').
    """
    bound = min(W, Wstar)
    pairs = _CONJUGATE_PAIRS.get(bound)
    if pairs is None:
        shapes = ((mu, conjugate(mu)) for mu in enumerate_partitions(bound))
        pairs = _CONJUGATE_PAIRS[bound] = [(mu, c) for mu, c in shapes if mu.parts >= c.parts]

    def terms():
        for mu, c in pairs:
            n, d = content_product_kp(spec, mu)
            if c != mu:
                m, e = content_product_kp(spec, c)
                n, d = n * e + m * d, d * e
            if n:
                yield n, d, schur_s(mu, bound)

    return _diagonal_sum(terms(), W, Wstar)


def vacuum_kernel(W, Wstar):
    """exp(sum over odd n of (n/2) t_n t*_n), truncated."""
    bound = min(W, Wstar)
    terms = {}
    for n in range(1, bound + 1, 2):
        terms[(((n, 1),), ((n, 1),))] = Fraction(n, 2)
    return BiSeries(W, Wstar, terms).exp()


def check_cauchy(W, vacuum=None):
    """Vacuum tau function: the Q-sum equals exp(sum (n/2) t_n t*_n).

    tau_bkp is read off vacuum, an `Ones` whose build the caller's other
    checks share, or off a new `Ones` if none is given.
    """
    if vacuum is None:
        vacuum = Ones()
    elif type(vacuum) is not Ones:
        raise ValueError("the Cauchy check reads an Ones spec, not %r" % (vacuum,))
    lhs = tau_bkp(vacuum, W, W)
    rhs = vacuum_kernel(W, W)
    return compare_series("cauchy", {"weight": W}, lhs, rhs)


def check_square(spec, W):
    """tau_bkp^2 = tau_kp coefficientwise to joint weight W."""
    t = tau_bkp(spec, W, W)
    return compare_series("square", {"r": repr(spec), "weight": W}, t * t, tau_kp(spec, W, W))


def check_symmetry_scaling(spec, a, W):
    """Alphabet swap and the (a^m, a^-m) scaling both fix tau_bkp.

    Every term c f(t) f(t*) of tau_bkp has equal t- and t*-weight and is
    symmetric, so both halves hold for any r: the check pins the assembly
    (the mirror half of _diagonal_sum), not r.  One pass over tau's
    numerators reads each at its mirrored key, for the swap half, and
    flags a key of t-weight u and t*-weight v when a^(u - v) != 1, for
    the scaling half; a passing check builds no series.  A failure of
    either half, the swap half first, names the flagged monomial of lowest
    total weight, then the least, with the coefficient of the swapped or
    scaled tau there as lhs and that of tau as rhs.
    """
    a = Fraction(a)
    if not a:
        raise ValueError("scale must be nonzero")
    t = tau_bkp(spec, W, W)
    num, codec = t.num, t.codec
    shift, low, mask = codec.shift, codec.low, codec.halves[0].mask
    swap, scale = {}, {}  # flagged key -> (lhs, rhs) numerators
    for k, v in num.items():
        m = k >> shift | (k & low) << shift
        w = num.get(m, 0)
        if w != v:
            swap[k], swap[m] = (w, v), (v, w)
        s = (k & mask) - (m & mask)  # m's t-weight is k's t*-weight
        if s and a ** s != 1:
            scale[k] = (v * a ** s, v)
    params = {"r": repr(spec), "weight": W}
    name, flagged = "symmetry-swap", swap
    if not swap:
        name, flagged = "symmetry-scaling", scale
        params["a"] = str(a)
    if not flagged:
        return TauReport(name, params, True)
    bad = min(flagged, key=lambda k: (sum(codec.grade(k)), codec.decode(k)))
    lhs, rhs = flagged[bad]
    witness = (_bi_label(codec.decode(bad)), Fraction(lhs, t.den), Fraction(rhs, t.den))
    return TauReport(name, params, False, witness)


def tau_at(spec, power_sum, W, max_length=None):
    """tau_bkp with one alphabet at t_m = (2/m) p_m, as an OddSeries in the
    other truncated at W; power_sum(m) gives p_m as an int pair (P, B), B > 0.

    Only the lambda of length <= max_length, if given, enter.  Each Q_lambda
    is read off one `_miwa_reader` table, and the terms are summed in
    integers over the lcm L of their denominators.
    """
    at = _miwa_reader(power_sum, W)
    scaled = []
    for n, d, q in tau_terms(spec, W, max_length):
        v, D = at(q)
        if v:
            scaled.append((n * v, d * D * q.den, q.num))
    L = lcm(1, *(d for _, d, _ in scaled))
    out = {0: L}  # the constant 1
    for k, d, num in scaled:
        k *= L // d
        for key, a in num.items():
            out[key] = out.get(key, 0) + k * a
    return OddSeries(W)._like(out, L)


def tau_hyper_tinfty(a_list, b_list, W):
    """tau_bkp for RationalPS(a_list, b_list) with t* = t_infinity: an
    OddSeries in t, truncated at W.

    t_infinity is t_1 = 1, t_m = 0 for m > 1, that is p_1 = 1/2 and p_m = 0
    otherwise, where Q_lambda(t_infinity/2) = 1/H*_lambda.  A nonpositive
    integer b_k is refused, as RationalPS refuses it.
    """
    return tau_at(RationalPS(a_list, b_list), lambda m: (int(m == 1), 2), W)


def hyper_one_var(a_list, b_list, order):
    """Coefficients of the generalized hypergeometric series pFs.

    Returns [c_0..c_order] with c_n = r(1)...r(n) / n! for RationalPS(a_list,
    b_list), that is prod (a_k)_n / prod (b_k)_n / n!.  A nonpositive
    integer b_k is refused at every order, as RationalPS refuses it.
    """
    spec = RationalPS(a_list, b_list)
    return [spec.r_prefix(n) / factorial(n) for n in range(order + 1)]


def scalar_product_r_by_weight(f, g, spec):
    """The deformed pairing sum over lambda of c_lambda(f) c_lambda(g) 2^l
    r_lambda, split by partition weight: {|lambda|: sum of its terms}.

    The constant terms give the entry at weight 0.  One walk of the weight
    blocks of `qschur._strict_table` at the smaller cap: per block, each
    kernel's dual is its numerators over the block's numbering at its own
    cap times the pairing factors, and <Q_lambda, f> is the dot product of
    lambda's row with it, over the block's D f.den.  With r_lambda = n / d
    from `r_lambda_pair`, the term of lambda is a b n / (d 2^l) over
    D^2 f.den g.den; a lambda with r_lambda = 0 is skipped before it is
    paired.  Each weight is summed over the lcm of its denominators into
    one Fraction; a weight with no nonzero term may be missing.
    """
    out = {0: f.constant_term() * g.constant_term()}
    Wf, Wg = f.truncation_weight, g.truncation_weight
    r_lambda_pair, fnum, gnum = spec.r_lambda_pair, f.num, g.num
    for w, (entries, factors, D) in enumerate(_strict_table(min(Wf, Wg))):
        dual_f = [fnum.get(k, 0) * c for k, c in zip(_numbering(w, Wf)[0], factors)]
        dual_g = [gnum.get(k, 0) * c for k, c in zip(_numbering(w, Wg)[0], factors)]
        terms = []
        for lam, l, _, row in entries:
            n, d = r_lambda_pair(lam)
            if n:
                a = sum(map(mul, row, dual_f))
                if a:
                    b = sum(map(mul, row, dual_g))
                    if b:
                        terms.append((a * b * n, d << l))
        if terms:
            L = lcm(*(d for _, d in terms))
            total = sum(n * (L // d) for n, d in terms)
            out[w] = Fraction(total, L * D * D * f.den * g.den)
    return out


def _exp_kernel(t_values, W):
    """exp(sum (m/2) t_m gamma_m) as an OddSeries in gamma, t_m as rationals.

    In closed form: the coefficient of gamma^e is prod_m c_m^{e_m} / e_m!
    with c_m = (m/2) t_m.  Each monomial of `_numbering(w, W)`, w = 1..W, is
    read off its key less its largest gamma_m, times c_m / e_m, as an int
    pair: one product per monomial, as in `qschur._miwa_reader`.  A monomial
    with a zero time is not kept, nor one built on it.  The pairs are summed
    over the lcm of their denominators.  A nonzero time at an index that is
    not an odd positive integer raises ValueError, and one at an odd index
    over W is dropped, as `OddSeries` reads its terms.
    """
    codec = odd_codec(W)
    c = {}  # m -> (step, numerator, denominator) of c_m, for c_m != 0
    for m, v in t_values.items():
        v = Fraction(v)
        if v:
            v *= Fraction(m, 2)
            if codec.encode(((m, 1),)) is not None:
                c[m] = (codec.variable(m), v.numerator, v.denominator)
    at = {0: (1, 1)}  # key -> (numerator, denominator) of its coefficient
    for w in range(1, W + 1):
        for key in _numbering(w, W)[0]:
            m, e = codec.decode(key)[-1]
            if m in c:
                step, a, b = c[m]
                below = at.get(key - step)
                if below is not None:
                    at[key] = (below[0] * a, below[1] * b * e)
    L = lcm(*(q for _, q in at.values()))
    return OddSeries(W)._like({k: p * (L // q) for k, (p, q) in at.items()}, L)


def check_tau_scalar(spec, W, t_values, tstar_values):
    """tau_bkp equals the r-pairing of the two exponential kernels.

    <exp(sum (m/2) t_m g_m), exp(sum (m/2) t*_m g_m)>_r = tau_r(t, t*)
    at given rational parameter values.  The left side goes through the
    differential-operator pairing (`scalar_product_r_by_weight`: each
    kernel's dual vector against every Q_lambda, in ints with one Fraction
    per weight), the right side through the series sum; the two routes
    share nothing past Q_lambda itself.  A time index that is not odd in
    [1, W], or an alphabet with no nonzero time, would make both sides
    agree whatever tau is, so it raises ValueError.
    """
    for name, times in (("t", t_values), ("t*", tstar_values)):
        for m in times:
            # tau carries no such time up to weight W: both sides would ignore it
            if not isinstance(m, int) or m % 2 == 0 or not 1 <= m <= W:
                raise ValueError("time index %r is not an odd integer in [1, %d]" % (m, W))
        # with one alphabet at zero both sides are 1
        if not any(times.values()):
            raise ValueError("every time of the %s alphabet is zero" % name)
    f = _exp_kernel(t_values, W)
    g = _exp_kernel(tstar_values, W)
    lhs_by_weight = scalar_product_r_by_weight(f, g, spec)
    lhs = sum(lhs_by_weight.values())
    values = (t_values, tstar_values)

    def image(v):
        return Fraction(values[v[0]].get(v[1], 0))

    bkp = tau_bkp(spec, W, W)
    rhs = bkp.substitute(image)
    params = {
        "r": repr(spec),
        "weight": W,
        "t": {str(m): str(Fraction(v)) for m, v in t_values.items()},
        "t*": {str(m): str(Fraction(v)) for m, v in tstar_values.items()},
    }
    if lhs == rhs:
        return TauReport("tau-scalar", params, True)

    # Q_lambda(t/2) Q_lambda(t*/2) has t-weight |lambda|: the lowest weight
    # whose two parts differ is the witness
    def rhs_at(w):
        return bkp.weight_component(w).substitute(image)

    for w in range(W + 1):
        lhs_w, rhs_w = lhs_by_weight.get(w, Fraction(0)), rhs_at(w)
        if lhs_w != rhs_w:
            return TauReport("tau-scalar", params, False, ("weight %d" % w, lhs_w, rhs_w))
