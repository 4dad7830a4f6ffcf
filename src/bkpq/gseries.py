"""Truncated graded polynomials over exact rational coefficients.

`GradedSeries` is the one sparse core: integer numerators over one common
denominator, truncated grade by grade.  A subclass says how to grade a
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

from collections.abc import Mapping
from fractions import Fraction
from math import factorial, gcd, lcm


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


class TruncationError(ValueError):
    """Raised when a query or operation exceeds the stored truncation."""


def _fill(obj, caps, unit, num, den):
    object.__setattr__(obj, "caps", caps)
    object.__setattr__(obj, "unit", unit)
    object.__setattr__(obj, "num", num)
    object.__setattr__(obj, "den", den)
    return obj


class _Terms(Mapping):
    """Read-only view of a series' coefficients as Fractions."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, mono):
        return Fraction(self._num[mono], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class GradedSeries:
    """Sparse polynomial with exact rational coefficients, truncated per grade.

    The coefficient of a monomial m is num[m] / den: `num` maps monomials to
    nonzero ints and `den` is a positive int with gcd(den, *num.values())
    == 1 (so the zero series has den == 1), which makes equal series equal
    field by field.  `terms` views the coefficients as Fractions.  `caps`
    holds one weight cap per grade and `unit` is the monomial of the
    constant term.  A subclass defines `grade(mono)`, the tuple of the
    monomial's weights in the order of `caps`, and `mono_mul(a, b)`; one
    that `substitute` serves also defines `part_variables(i, part)`, and
    one of several alphabets `parts(mono)`.
    """

    __slots__ = ("caps", "unit", "num", "den")

    def __init__(self, caps, unit, terms=None):
        """Validate outside input: coefficients are read as Fractions, and
        zero terms and terms over a cap are dropped."""
        caps = tuple(int(c) for c in caps)
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c and all(w <= cap for w, cap in zip(self.grade(mono), caps)):
                    clean[mono] = c
        # the lcm of lowest-form denominators shares no factor with every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        _fill(self, caps, unit, num, den)

    def _like(self, num, den):
        """A result in the same ring with coefficients num[m] / den.  Every
        monomial must be within the caps and den positive; zeros are dropped
        and the common factor divided out."""
        if not all(num.values()):
            num = {m: v for m, v in num.items() if v}
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: v // g for m, v in num.items()}
            den //= g
        return _fill(object.__new__(type(self)), self.caps, self.unit, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __repr__(self):
        return "%s(caps=%s, %d terms)" % (type(self).__name__, self.caps, len(self.num))

    @property
    def terms(self):
        return _Terms(self.num, self.den)

    def is_zero(self):
        return not self.num

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
            return self._like({self.unit: other.numerator}, other.denominator)
        self._check_match(other)
        return other

    def _grade_groups(self):
        """{grade: [(monomial, numerator), ...]} over the terms."""
        grade = self.grade
        groups = {}
        for m, v in self.num.items():
            groups.setdefault(grade(m), []).append((m, v))
        return groups

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if type(other) is not type(self):
            return NotImplemented
        return (self.caps, self.unit, self.den, self.num) == (
            other.caps, other.unit, other.den, other.num
        )

    def __hash__(self):
        return hash((self.caps, self.unit, self.den, frozenset(self.num.items())))

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        num = {m: v * sa for m, v in self.num.items()}
        for m, v in other.num.items():
            num[m] = num.get(m, 0) + v * sb
        return self._like(num, den)

    __radd__ = __add__

    def __neg__(self):
        num = {m: -v for m, v in self.num.items()}
        return _fill(object.__new__(type(self)), self.caps, self.unit, num, self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return self._like(
                {m: v * p for m, v in self.num.items()}, self.den * other.denominator
            )
        self._check_match(other)
        caps, mono_mul = self.caps, self.mono_mul
        right = other._grade_groups().items()
        num = {}
        for ga, left_terms in self._grade_groups().items():
            for gb, right_terms in right:
                if any(a + b > cap for a, b, cap in zip(ga, gb, caps)):
                    continue
                for ma, va in left_terms:
                    for mb, vb in right_terms:
                        key = mono_mul(ma, mb)
                        num[key] = num.get(key, 0) + va * vb
        return self._like(num, self.den * other.den)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term, truncated."""
        if self.unit in self.num:
            raise ValueError("exp requires zero constant term")
        result = power = self._like({self.unit: 1}, 1)
        # every other monomial has total grade >= 1, so the k-th power
        # vanishes once k exceeds the sum of the caps
        for k in range(1, sum(self.caps) + 1):
            power = power * self
            if not power.num:
                break
            result = result + power * Fraction(1, factorial(k))
        return result

    def substitute(self, image, one):
        """The ring map that sends each variable v to image(v).

        The target ring has unit `one` (a Fraction, MultiPoly, OddSeries ...);
        `variables(mono)` names the variables of a monomial with their
        exponents.  Each image is computed once per call and its powers are
        built from the previous one.  A number target (`one` an int or a
        Fraction) is summed in integers, see `_evaluate`.
        """
        if isinstance(one, (int, Fraction)):
            return self._evaluate(image)
        powers = {}
        total = one * 0
        den = self.den
        for mono, v in self.num.items():
            term = Fraction(v, den)
            for var, e in self.variables(mono):
                p = powers.get(var)
                if p is None:
                    p = powers[var] = [one, image(var)]
                while len(p) <= e:
                    p.append(p[-1] * p[1])
                term = p[e] * term
            total = total + term
        return total

    @staticmethod
    def parts(mono):
        """The monomial split by alphabet; one alphabet gives one part."""
        return (mono,)

    @classmethod
    def variables(cls, mono):
        """(variable, exponent) for each variable of the monomial."""
        return [v for i, part in enumerate(cls.parts(mono)) for v in cls.part_variables(i, part)]

    def _evaluate(self, image):
        """The series at the numbers image(v), as one Fraction.

        Each distinct part in position i of `parts` is evaluated once, as an
        int over the lcm D_i of their denominators; one with a variable at
        zero is skipped with its monomials.  The sum of num * prod_i part_i
        is one int over den * prod_i D_i.
        """
        at = {}

        def value(i, part):
            p = q = 1
            for var, e in self.part_variables(i, part):
                x = at.get(var)
                if x is None:
                    x = at[var] = Fraction(image(var))
                p *= x.numerator ** e
                q *= x.denominator ** e
            return p, q

        rows = [(self.parts(mono), v) for mono, v in self.num.items()]
        columns = []
        den = self.den
        for i, column in enumerate(zip(*(ps for ps, _ in rows))):
            values = {part: value(i, part) for part in set(column)}
            D = lcm(*(q for p, q in values.values() if p))
            columns.append({part: p * (D // q) for part, (p, q) in values.items() if p})
            den *= D
        total = 0
        for ps, v in rows:
            for col, part in zip(columns, ps):
                v *= col.get(part, 0)
                if not v:
                    break
            total += v
        return Fraction(total, den)

    def _scaled(self, a0, shift):
        """The coefficient of each monomial m times a0^shift(m), in ints.

        With a0 = p/q and lo <= 0 <= hi bounding the shifts, a numerator gains
        p^(s - lo) q^(hi - s) and the denominator p^(-lo) q^hi once; the sign
        of a negative p^(-lo) moves into the numerators.
        """
        p, q = a0.numerator, a0.denominator
        shifts = {m: shift(m) for m in self.num}
        lo = min([0, *shifts.values()])
        hi = max([0, *shifts.values()])
        pp = [p ** k for k in range(hi - lo + 1)]
        qq = [q ** k for k in range(hi - lo + 1)]
        d = pp[-lo]
        sign = -1 if d < 0 else 1
        num = {m: sign * v * pp[shifts[m] - lo] * qq[hi - shifts[m]] for m, v in self.num.items()}
        return self._like(num, self.den * abs(d) * qq[hi])

    def weight_component(self, w):
        """The terms whose first weight (the t weight of a BiSeries) is w."""
        grade = self.grade
        return self._like({m: v for m, v in self.num.items() if grade(m)[0] == w}, self.den)

    def first_difference(self, other):
        """The monomial whose coefficients differ, or None if there is none.

        Among several, the one of lowest total grade, then the least monomial.
        """
        self._check_match(other)
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da == db and a == b:  # the canonical form: equal series, equal fields
            return None
        grade = self.grade
        return min(
            (m for m in a.keys() | b.keys() if a.get(m, 0) * db != b.get(m, 0) * da),
            key=lambda m: (sum(grade(m)), m),
            default=None,
        )


class OddSeries(GradedSeries):
    """Truncated polynomial in t_1, t_3, ... over exact rational coefficients."""

    __slots__ = ()

    def __init__(self, truncation_weight, terms=None):
        super().__init__((truncation_weight,), (), terms)

    @staticmethod
    def grade(mono):
        return (mono_weight(mono),)

    mono_mul = staticmethod(mono_mul)

    @staticmethod
    def part_variables(i, part):
        """(m, exponent) for each t_m."""
        return part

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
        num = {}
        for mono, v in self.num.items():
            d = dict(mono)
            e = d.get(m, 0)
            if not e:
                continue
            if e == 1:
                del d[m]
            else:
                d[m] = e - 1
            key = tuple(sorted(d.items()))
            num[key] = num.get(key, 0) + v * e
        return self._like(num, self.den)

    def substitute_scaled(self, a0):
        """Apply t_m -> a0^m t_m."""
        a0 = Fraction(a0)
        return self._scaled(a0, mono_weight)

    def to_json(self):
        terms = self.terms
        return {
            "truncation_weight": self.truncation_weight,
            "terms": [
                {
                    "exps": {str(m): e for m, e in mono},
                    "coeff": str(terms[mono]),
                }
                for mono in sorted(terms)
            ],
        }


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
    def parts(mono):
        """The t-monomial and the t*-monomial."""
        return mono

    @staticmethod
    def part_variables(i, part):
        """((i, m), exponent) for each t_m (i = 0) or t*_m (i = 1)."""
        return [((i, m), e) for m, e in part]

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
        W, Wstar = self.caps
        num = {(ms, mt): v for (mt, ms), v in self.num.items()}
        return _fill(object.__new__(BiSeries), (Wstar, W), self.unit, num, self.den)

    def substitute_scaled(self, a0):
        """t_m -> a0^m t_m and t*_m -> a0^(-m) t*_m."""
        a0 = Fraction(a0)
        if not a0:
            raise ValueError("scale must be nonzero")
        return self._scaled(a0, lambda m: mono_weight(m[0]) - mono_weight(m[1]))

    def to_json(self):
        def key(k):
            return (sorted(k[0]), sorted(k[1]))

        terms = self.terms
        return {
            "truncation_weight": self.truncation_weight,
            "truncation_weight_star": self.truncation_weight_star,
            "terms": [
                {
                    "exps": {str(m): e for m, e in kt},
                    "exps_star": {str(m): e for m, e in ks},
                    "coeff": str(terms[(kt, ks)]),
                }
                for kt, ks in sorted(terms, key=key)
            ],
        }
