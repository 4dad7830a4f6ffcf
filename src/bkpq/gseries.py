"""Truncated graded polynomials over exact rational coefficients.

`GradedSeries` is the one sparse core: a dict from monomials to nonzero
Fractions, truncated grade by grade.  A subclass says how to grade a
monomial (one weight per cap) and how to multiply two monomials; the ring
operations, exp, substitution, equality and the first differing monomial
live here once.

`OddSeries` is one alphabet of odd times t_1, t_3, t_5, ... with weight m
for t_m, and `BiSeries` is two such alphabets t and t* with a cap each.
`pfaffian.MultiPoly` grades ordinary polynomials by total degree.  Every
operation discards terms above the caps, so identities that hold
weight-by-weight can be checked exactly on truncated representatives.

An odd-time monomial is a tuple of (odd index, exponent) pairs sorted by index.
"""

from fractions import Fraction
from math import factorial


def mono_weight(mono):
    return sum(m * e for m, e in mono)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for m, e in b:
        d[m] = d.get(m, 0) + e
    return tuple(sorted(d.items()))


def mono_from_exps(exps):
    """Normalize a {index: exponent} mapping into a monomial key."""
    items = []
    for m, e in exps.items():
        m, e = int(m), int(e)
        if m <= 0 or m % 2 == 0:
            raise ValueError("time indices must be odd positive, got %d" % m)
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            items.append((m, e))
    return tuple(sorted(items))


class TruncationError(ValueError):
    """Raised when a query or operation exceeds the stored truncation."""


def _fill(obj, caps, unit, terms):
    object.__setattr__(obj, "caps", caps)
    object.__setattr__(obj, "unit", unit)
    object.__setattr__(obj, "terms", terms)
    return obj


class GradedSeries:
    """Sparse polynomial with Fraction coefficients, truncated per grade.

    `terms` maps monomials to nonzero coefficients, `caps` holds one weight
    cap per grade and `unit` is the monomial of the constant term.  A
    subclass defines `grade(mono)`, the tuple of the monomial's weights in
    the order of `caps`, and `mono_mul(a, b)`; one that `substitute` serves
    also defines `variables(mono)`.
    """

    __slots__ = ("caps", "unit", "terms")

    def __init__(self, caps, unit, terms=None):
        """Validate outside input: coefficients become Fractions, and zero
        terms and terms over a cap are dropped."""
        caps = tuple(int(c) for c in caps)
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c and all(w <= cap for w, cap in zip(self.grade(mono), caps)):
                    clean[mono] = c
        _fill(self, caps, unit, clean)

    def _like(self, terms):
        """A result in the same ring.  Every coefficient must already be a
        Fraction and every monomial within the caps; zeros are dropped."""
        return _fill(
            object.__new__(type(self)),
            self.caps,
            self.unit,
            {m: c for m, c in terms.items() if c},
        )

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(self.unit, Fraction(0))

    def coefficient(self, mono):
        weights = self.grade(mono)
        if any(w > cap for w, cap in zip(weights, self.caps)):
            raise TruncationError(
                "monomial of weight %s beyond truncation %s" % (weights, self.caps)
            )
        return self.terms.get(mono, Fraction(0))

    def _check_match(self, other):
        if self.caps != other.caps or self.unit != other.unit:
            raise TruncationError("truncation mismatch: %s vs %s" % (self.caps, other.caps))

    def _coerce(self, other):
        """other as a series of this ring; a number becomes a constant."""
        if isinstance(other, (int, Fraction)):
            return self._like({self.unit: Fraction(other)})
        self._check_match(other)
        return other

    def _grade_groups(self):
        """{grade: [(monomial, coefficient), ...]} over the terms."""
        grade = self.grade
        groups = {}
        for m, c in self.terms.items():
            groups.setdefault(grade(m), []).append((m, c))
        return groups

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.caps == other.caps
            and self.unit == other.unit
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.caps, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like({m: c * other for m, c in self.terms.items()})
        self._check_match(other)
        caps, mono_mul = self.caps, self.mono_mul
        right = other._grade_groups().items()
        terms = {}
        for ga, left_terms in self._grade_groups().items():
            for gb, right_terms in right:
                if any(a + b > cap for a, b, cap in zip(ga, gb, caps)):
                    continue
                for ma, ca in left_terms:
                    for mb, cb in right_terms:
                        key = mono_mul(ma, mb)
                        terms[key] = terms.get(key, 0) + ca * cb
        return self._like(terms)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term, truncated."""
        if self.unit in self.terms:
            raise ValueError("exp requires zero constant term")
        result = power = self._like({self.unit: Fraction(1)})
        # every other monomial has total grade >= 1, so the k-th power
        # vanishes once k exceeds the sum of the caps
        for k in range(1, sum(self.caps) + 1):
            power = power * self
            if not power.terms:
                break
            result = result + power * Fraction(1, factorial(k))
        return result

    def substitute(self, image, one):
        """The ring map that sends each variable v to image(v).

        The target ring has unit `one` (a Fraction, MultiPoly, OddSeries ...);
        `variables(mono)` names the variables of a monomial with their
        exponents.  Each image is computed once per call and its powers are
        built from the previous one.
        """
        powers = {}
        total = one * 0
        for mono, c in self.terms.items():
            term = c
            for v, e in self.variables(mono):
                p = powers.get(v)
                if p is None:
                    p = powers[v] = [one, image(v)]
                while len(p) <= e:
                    p.append(p[-1] * p[1])
                term = p[e] * term
            total = total + term
        return total

    def first_difference(self, other):
        """The monomial whose coefficients differ, or None if there is none.

        Among several, the one of lowest total grade, then the least monomial.
        """
        self._check_match(other)
        a, b = self.terms, other.terms
        grade = self.grade
        return min(
            (m for m in a.keys() | b.keys() if a.get(m) != b.get(m)),
            key=lambda m: (sum(grade(m)), m),
            default=None,
        )


class OddSeries(GradedSeries):
    """Truncated polynomial in t_1, t_3, ... over Fraction coefficients."""

    __slots__ = ()

    def __init__(self, truncation_weight, terms=None):
        super().__init__((truncation_weight,), (), terms)

    @staticmethod
    def grade(mono):
        return (mono_weight(mono),)

    mono_mul = staticmethod(mono_mul)

    @staticmethod
    def variables(mono):
        """(m, exponent) for each t_m of the monomial."""
        return mono

    # bound in each class body so that tools wrapping a class's own methods
    # (the perfbench tracer) see every series class separately
    __add__ = __radd__ = GradedSeries.__add__
    __mul__ = __rmul__ = GradedSeries.__mul__
    exp = GradedSeries.exp

    @property
    def truncation_weight(self):
        return self.caps[0]

    @classmethod
    def constant(cls, W, value=1):
        return cls(W, {(): value})

    @classmethod
    def variable(cls, W, m):
        if m % 2 == 0 or m <= 0:
            raise ValueError("odd positive index required")
        return cls(W, {((m, 1),): 1})

    def partial(self, m):
        """Formal partial derivative with respect to t_m."""
        terms = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(m, 0)
            if not e:
                continue
            if e == 1:
                del d[m]
            else:
                d[m] = e - 1
            key = tuple(sorted(d.items()))
            terms[key] = terms.get(key, 0) + c * e
        return self._like(terms)

    def substitute_scaled(self, a0):
        """Apply t_m -> a0^m t_m."""
        a0 = Fraction(a0)
        return self._like({m: c * a0 ** mono_weight(m) for m, c in self.terms.items()})

    def weight_component(self, w):
        return self._like({m: c for m, c in self.terms.items() if mono_weight(m) == w})

    def retruncate(self, W):
        return OddSeries(W, self.terms)

    def to_json(self):
        return {
            "truncation_weight": self.truncation_weight,
            "terms": [
                {
                    "exps": {str(m): e for m, e in mono},
                    "coeff": str(self.terms[mono]),
                }
                for mono in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for t in obj["terms"]:
            terms[mono_from_exps(t["exps"])] = Fraction(t["coeff"])
        return cls(obj["truncation_weight"], terms)

    def __repr__(self):
        if not self.terms:
            return "OddSeries(W=%d, 0)" % self.truncation_weight
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            var = "*".join(
                "t%d" % m if e == 1 else "t%d^%d" % (m, e) for m, e in mono
            )
            bits.append("%s%s" % (c, "*" + var if var else ""))
        return "OddSeries(W=%d, %s)" % (self.truncation_weight, " + ".join(bits))


class BiSeries(GradedSeries):
    """Truncated bigraded series in two odd-time alphabets t and t*.

    A monomial is a pair (t-monomial, t*-monomial).
    """

    __slots__ = ()

    def __init__(self, W, Wstar, terms=None):
        super().__init__((W, Wstar), ((), ()), terms)

    @staticmethod
    def grade(mono):
        return (mono_weight(mono[0]), mono_weight(mono[1]))

    @staticmethod
    def mono_mul(a, b):
        return (mono_mul(a[0], b[0]), mono_mul(a[1], b[1]))

    @staticmethod
    def variables(mono):
        """((0, m), exponent) for each t_m and ((1, m), exponent) for each t*_m."""
        mt, ms = mono
        return [((0, m), e) for m, e in mt] + [((1, m), e) for m, e in ms]

    __mul__ = __rmul__ = GradedSeries.__mul__
    exp = GradedSeries.exp

    @property
    def truncation_weight(self):
        return self.caps[0]

    @property
    def truncation_weight_star(self):
        return self.caps[1]

    @classmethod
    def constant(cls, W, Wstar, value=1):
        return cls(W, Wstar, {((), ()): value})

    def coefficient(self, mono_t, mono_tstar):
        return GradedSeries.coefficient(self, (mono_t, mono_tstar))

    def swap(self):
        """Exchange the t and t* alphabets."""
        return BiSeries(
            self.truncation_weight_star,
            self.truncation_weight,
            {(ms, mt): c for (mt, ms), c in self.terms.items()},
        )

    def substitute_scaled(self, a0):
        """t_m -> a0^m t_m and t*_m -> a0^(-m) t*_m."""
        a0 = Fraction(a0)
        if not a0:
            raise ValueError("scale must be nonzero")
        return self._like(
            {
                (mt, ms): c * a0 ** (mono_weight(mt) - mono_weight(ms))
                for (mt, ms), c in self.terms.items()
            }
        )

    def to_json(self):
        def key(k):
            return (sorted(k[0]), sorted(k[1]))

        return {
            "truncation_weight": self.truncation_weight,
            "truncation_weight_star": self.truncation_weight_star,
            "terms": [
                {
                    "exps": {str(m): e for m, e in kt},
                    "exps_star": {str(m): e for m, e in ks},
                    "coeff": str(self.terms[(kt, ks)]),
                }
                for kt, ks in sorted(self.terms, key=key)
            ],
        }

    def __repr__(self):
        return "BiSeries(W=%d, W*=%d, %d terms)" % (
            self.truncation_weight,
            self.truncation_weight_star,
            len(self.terms),
        )
