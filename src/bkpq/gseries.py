"""Truncated graded polynomials over exact rational coefficients.

`GradedSeries` is the one sparse core: integer numerators over one common
denominator, truncated grade by grade, on int keys packed by one codec per
ring.  A subclass only passes its interned codec; the ring operations, exp,
evaluation at numbers, equality and the first differing monomial live here
once.

`OddSeries` is one alphabet of odd times t_1, t_3, t_5, ... with weight m
for t_m, and `BiSeries` is two such alphabets t and t* with a cap each.
`pfaffian.MultiPoly` grades ordinary polynomials in x_0, x_1, ... by total
degree.  Every operation discards terms above the caps, so identities that
hold weight-by-weight can be checked exactly on truncated representatives.

The API takes and gives monomials as tuples: the constructors,
`coefficient`, the `terms` view, `to_json` and the witness of
`first_difference`.  An odd-time monomial is a tuple of (odd index,
positive exponent) pairs in strictly increasing index order, so each
monomial has one tuple, and a `MultiPoly` monomial the tuple of its nvars
exponents, zeros included.  Inside a series each one is a key: an int
packed by the ring's codec, which its caps (and nvars) fix
(`WeightedCodec`, `BiCodec`, `DenseCodec`).  The weight and each exponent
have bit fields of their own, so a grade is a shift and a mask, the
constant is key 0 and the product of two monomials whose grades fit the
caps is one int addition that cannot carry.  The codec is the only reader
of a tuple monomial: `encode` gives its key, None for a monomial of the
ring over a cap, and ValueError for one that is not the ring's (an
odd-time tuple with a zero exponent, a repeated index or indices out of
order among them).  Its masks `low` and `shift` split a key into one part
per alphabet, and `variables` and `name` give the variables of a part.

`exp` is the truncated sum of S^k / k!, by the ring's own product and
sum.  `substitute` values a series at numbers, summed in ints.  Where the
odd times go to another ring, as in `pfaffian.tau_as_multipoly`,
`qschur._miwa_reader` reads each Q_lambda off a table of monomials instead.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm


class TruncationError(ValueError):
    """Raised when a query or operation exceeds the stored truncation."""


def _not_a_monomial(mono, codec):
    return ValueError("%r is not a monomial of %r" % (mono, codec))


class WeightedCodec:
    """The monomials of weight <= cap in weighted variables, packed into ints.

    `weights` maps each variable, a number, to its positive weight, in field
    order, which is increasing order.  A monomial is a tuple of (variable,
    exponent) pairs, every exponent positive and the variables strictly
    increasing by value, so each monomial has one tuple; `encode` refuses a
    zero exponent, a repeated variable and pairs out of order.  The low bits
    of a key hold the weight; above them each variable v has a field wide
    enough for cap // weights[v], for its exponent.  `shift` is the number of
    bits used and `low` their mask, so k & low and k >> shift split a key
    into alphabet parts as in a BiCodec: the key itself and 0.  The key of
    the constant is 0.  Each decoded key is kept with its monomial; there
    are at most as many as monomials of weight <= cap.  A
    variable with no field is one of weight over cap if it is an odd positive
    number, the next t_m of the odd alphabet, and not a variable otherwise;
    the variables of a DenseCodec all have fields, and its dense tuples keep
    their zeros: `pairs` reads only the nonzero exponents.
    """

    __slots__ = ("cap", "caps", "mask", "fields", "shift", "low", "_decoded")

    def __init__(self, cap, weights):
        self.cap = cap
        self.caps = (cap,)
        self._decoded = {}
        shift = cap.bit_length()
        self.mask = (1 << shift) - 1
        self.fields = {}  # v -> (shift, field mask, weight)
        for v, w in weights.items():
            bits = (cap // w).bit_length()
            self.fields[v] = (shift, (1 << bits) - 1, w)
            shift += bits
        self.shift = shift
        self.low = (1 << shift) - 1

    def __repr__(self):
        weights = {v: w for v, (_, _, w) in self.fields.items()}
        return "WeightedCodec(%d, %s)" % (self.cap, weights)

    def encode(self, mono):
        """The key of a monomial, None if its weight is over cap; ValueError
        if it is not a monomial of these variables."""
        key = weight = 0
        last = -1  # below every variable
        try:
            for v, e in self.pairs(mono):
                field = self.fields.get(v)
                # an exponent is read by value, as an index is: 1.0 is 1
                if e <= 0 or e % 1 or v <= last or field is None and not _odd_index(v):
                    raise _not_a_monomial(mono, self)
                last = v
                e = int(e)
                if field is None:
                    weight += e * (self.cap + 1)
                else:
                    key += e << field[0]
                    weight += e * field[2]
        except TypeError:  # not (variable, exponent) pairs of numbers
            raise _not_a_monomial(mono, self) from None
        return key + weight if weight <= self.cap else None

    @staticmethod
    def pairs(mono):
        """The (variable, exponent) pairs of a monomial."""
        return mono

    def decode(self, key):
        mono = self._decoded.get(key)
        if mono is None:
            fields = self.fields.items()
            mono = self._decoded[key] = tuple(
                (v, e) for v, (s, f, _) in fields if (e := key >> s & f)
            )
        return mono

    def variable(self, v):
        """The key of the variable v."""
        shift, _, w = self.fields[v]
        return (1 << shift) + w

    def grade(self, key):
        return (key & self.mask,)

    def variables(self, i, part):
        """(variable, exponent) for each variable of a part, as pairs also in
        a DenseCodec; `name(i, variable)` is the variable that image takes."""
        return WeightedCodec.decode(self, part)

    name = staticmethod(lambda i, v: v)


class DenseCodec(WeightedCodec):
    """x_0, ..., x_{nvars-1} of weight 1 each to total degree cutoff, whose
    monomials are dense tuples of nvars exponents."""

    __slots__ = ()

    def __init__(self, nvars, cutoff):
        super().__init__(cutoff, dict.fromkeys(range(nvars), 1))

    def __repr__(self):
        return "DenseCodec(nvars=%d, cutoff=%d)" % (len(self.fields), self.cap)

    def pairs(self, mono):
        """The (variable, exponent) pairs of the nonzero exponents."""
        if len(mono) != len(self.fields):
            raise _not_a_monomial(mono, self)
        return [(v, e) for v, e in enumerate(mono) if e != 0]

    def decode(self, key):
        return tuple(key >> s & f for s, f, _ in self.fields.values())


class BiCodec:
    """(t, t*) monomials within caps (W, Wstar), packed into ints: the t key
    of odd_codec(W) in the low `shift` bits and the t* key of
    odd_codec(Wstar) above them."""

    __slots__ = ("caps", "halves", "shift", "low")

    def __init__(self, W, Wstar):
        self.caps = (W, Wstar)
        self.halves = (odd_codec(W), odd_codec(Wstar))
        self.shift = self.halves[0].shift
        self.low = (1 << self.shift) - 1

    def __repr__(self):
        return "BiCodec(W=%d, Wstar=%d)" % self.caps

    def encode(self, mono):
        try:
            t, s = mono
            kt, ks = self.halves[0].encode(t), self.halves[1].encode(s)
        except (TypeError, ValueError):
            raise _not_a_monomial(mono, self) from None
        return None if kt is None or ks is None else kt | ks << self.shift

    def decode(self, key):
        t, s = self.halves
        return (t.decode(key & self.low), s.decode(key >> self.shift))

    def grade(self, key):
        return (key & self.halves[0].mask, key >> self.shift & self.halves[1].mask)

    def variables(self, i, part):
        """(m, exponent) for each t_m (i = 0) or t*_m (i = 1) of a part, whose
        name(i, m) is (i, m)."""
        return self.halves[i].decode(part)

    name = staticmethod(lambda i, m: (i, m))


_CODECS = {}  # ("odd", W), ("bi", W, Wstar) or ("dense", nvars, cutoff) -> its one codec


def _interned(key, make):
    codec = _CODECS.get(key)
    if codec is None:
        codec = _CODECS[key] = make()
    return codec


def _odd_index(m):
    """Whether m is an odd positive number, compared by value as a field
    lookup compares it (9.0 is 9)."""
    return m > 0 and m % 2 == 1


def odd_codec(W):
    """The codec of t_1, t_3, ..., t_m of weight m, to weight W; a t_m of odd
    m > W is a variable over the cap."""
    return _interned(("odd", W), lambda: WeightedCodec(W, {m: m for m in range(1, W + 1, 2)}))


def bi_codec(W, Wstar):
    return _interned(("bi", W, Wstar), lambda: BiCodec(W, Wstar))


def dense_codec(nvars, cutoff):
    return _interned(("dense", nvars, cutoff), lambda: DenseCodec(nvars, cutoff))


def _fill(obj, num, den, codec):
    object.__setattr__(obj, "num", num)
    object.__setattr__(obj, "den", den)
    object.__setattr__(obj, "codec", codec)
    return obj


def _grouped(grade, num):
    """{grade: [(key, numerator), ...]} over a numerator dict."""
    groups = {}
    for k, v in num.items():
        groups.setdefault(grade(k), []).append((k, v))
    return groups


class _Terms(Mapping):
    """Read-only view of a series' coefficients as Fractions, by monomial."""

    __slots__ = ("_series",)

    def __init__(self, series):
        self._series = series

    def __getitem__(self, mono):
        s = self._series
        try:
            key = s.codec.encode(mono)
        except ValueError:
            key = None
        if key is None:
            raise KeyError(mono)
        return Fraction(s.num[key], s.den)

    def __iter__(self):
        return map(self._series.codec.decode, self._series.num)

    def __len__(self):
        return len(self._series.num)


class GradedSeries:
    """Sparse polynomial with exact rational coefficients, truncated per grade.

    The coefficient of the monomial with key k is num[k] / den: `num` maps
    keys to nonzero ints and `den` is a positive int with gcd(den,
    *num.values()) == 1 (so the zero series has den == 1), which makes equal
    series equal field by field.  `terms` views the coefficients as
    Fractions by monomial.  `codec` is the ring's interned codec and the
    only reader of a tuple monomial: it maps monomials to keys (None over a
    cap, ValueError for one not of the ring), grades keys, splits them by
    alphabet and names their variables.  The key of a product is the sum of
    the keys, the constant is key 0 and `caps` holds its weight cap per
    grade.  A subclass only passes its codec to `__init__`.
    """

    __slots__ = ("num", "den", "codec")

    def __init__(self, codec, terms=None):
        """Validate outside input: coefficients are read as Fractions, zero
        terms and terms over a cap are dropped, monomials with one key add
        up, and one that is not a monomial of the ring raises ValueError."""
        clean = {}
        if terms:
            for mono, c in terms.items():
                key = codec.encode(mono)
                c = Fraction(c)
                if c and key is not None:
                    if key in clean:
                        c += clean.pop(key)
                    if c:
                        clean[key] = c
        # the lcm of lowest-form denominators shares no factor with every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        _fill(self, num, den, codec)

    @property
    def caps(self):
        return self.codec.caps

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
        return _fill(object.__new__(type(self)), num, den, self.codec)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __repr__(self):
        return "%s(caps=%s, %d terms)" % (type(self).__name__, self.caps, len(self.num))

    @property
    def terms(self):
        return _Terms(self)

    def is_zero(self):
        return not self.num

    def constant_term(self):
        return Fraction(self.num.get(0, 0), self.den)

    def coefficient(self, mono):
        key = self.codec.encode(mono)
        if key is None:
            raise TruncationError("monomial %r beyond truncation %s" % (mono, self.caps))
        return Fraction(self.num.get(key, 0), self.den)

    def _check_match(self, other):
        if self.codec is not other.codec:
            raise TruncationError(
                "ring mismatch: %s on %r vs %s on %r"
                % (type(self).__name__, self.codec, type(other).__name__, other.codec)
            )

    def _coerce(self, other):
        """other as a series of this ring; a number becomes a constant."""
        if isinstance(other, (int, Fraction)):
            return self._like({0: other.numerator}, other.denominator)
        self._check_match(other)
        return other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.codec is other.codec and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.caps, self.den, frozenset(self.num.items())))

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
        return _fill(object.__new__(type(self)), num, self.den, self.codec)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return self._like(
                {m: v * p for m, v in self.num.items()}, self.den * other.denominator
            )
        self._check_match(other)
        grade, caps = self.codec.grade, self.caps
        right = _grouped(grade, other.num).items()
        num = {}
        for ga, left_terms in _grouped(grade, self.num).items():
            for gb, right_terms in right:
                # truncated: a pair of grades over a cap is skipped whole
                if any(a + b > cap for a, b, cap in zip(ga, gb, caps)):
                    continue
                for ka, va in left_terms:
                    for kb, vb in right_terms:
                        key = ka + kb
                        num[key] = num.get(key, 0) + va * vb
        return self._like(num, self.den * other.den)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series S with zero constant term, truncated: the sum of
        S^k / k! for k <= sum(caps), since every monomial of S^k has total
        grade >= k.  Built with the ring's own product and sum."""
        if 0 in self.num:
            raise ValueError("exp requires zero constant term")
        result = power = self._coerce(1)
        for k in range(sum(self.caps)):
            power = power * self * Fraction(1, k + 1)  # S^(k+1) / (k+1)!
            result = result + power
        return result

    def substitute(self, image):
        """The series at the numbers image(v), as one Fraction.

        v is a variable as the codec names it: m for t_m, (0, m) and (1, m)
        for t_m and t*_m of a BiSeries, k for x_k.  The codec's masks split
        a key k into one part per alphabet, k & low and k >> shift (0 in a
        ring of one alphabet).  Each distinct part of alphabet i is valued
        once, from the numerator and denominator powers of its variables, as
        an int over the lcm D_i of the part denominators; a part with a
        variable at zero is dropped.  One pass sums num * A[k & low] *
        B[k >> shift] over den * D_0 * D_1, skipping every key that holds a
        dropped part.
        """
        codec, num, den = self.codec, self.num, self.den
        low, shift = codec.low, codec.shift
        factors = []
        for i, parts in enumerate(({k & low for k in num}, {k >> shift for k in num})):
            at, values = {}, {}  # at: variable -> (numerator, denominator) of its image
            for part in parts:
                p = q = 1
                for var, e in codec.variables(i, part):
                    x = at.get(var)
                    if x is None:
                        x = at[var] = Fraction(image(codec.name(i, var))).as_integer_ratio()
                    if not x[0]:
                        break
                    p *= x[0] ** e
                    q *= x[1] ** e
                else:
                    values[part] = (p, q)
            D = lcm(*(q for _, q in values.values()))
            factors.append({part: p * (D // q) for part, (p, q) in values.items()})
            den *= D
        A, B = factors
        total = sum(
            v * a * b for k, v in num.items() if (a := A.get(k & low)) and (b := B.get(k >> shift))
        )
        return Fraction(total, den)

    def weight_component(self, w):
        """The terms whose first weight (the t weight of a BiSeries) is w."""
        grade = self.codec.grade
        return self._like({m: v for m, v in self.num.items() if grade(m)[0] == w}, self.den)

    def first_difference(self, other):
        """The monomial whose coefficients differ, or None if there is none.

        Among several, the one of lowest total grade, then the least monomial;
        only the keys at that grade are decoded.
        """
        self._check_match(other)
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da == db and a == b:  # the canonical form: equal series, equal fields
            return None
        grade = self.codec.grade
        differ = {}
        for k in a.keys() | b.keys():
            if a.get(k, 0) * db != b.get(k, 0) * da:
                differ.setdefault(sum(grade(k)), []).append(k)
        return min(map(self.codec.decode, differ[min(differ)])) if differ else None


class OddSeries(GradedSeries):
    """Truncated polynomial in t_1, t_3, ... over exact rational coefficients."""

    __slots__ = ()

    def __init__(self, truncation_weight, terms=None):
        super().__init__(odd_codec(truncation_weight), terms)

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
        return cls(W, {((m, 1),): 1})

    def partial(self, m):
        """Formal partial derivative with respect to t_m."""
        field = self.codec.fields.get(m)
        num = {}
        if field is not None:
            shift, mask, w = field
            step = (1 << shift) + w  # one t_m: its exponent and its weight
            for k, v in self.num.items():
                e = k >> shift & mask
                if e:
                    num[k - step] = v * e
        return self._like(num, self.den)

    def to_json(self):
        decode, den = self.codec.decode, self.den
        return {
            "truncation_weight": self.truncation_weight,
            "terms": [
                {"exps": {str(m): e for m, e in mono}, "coeff": str(Fraction(v, den))}
                for mono, v in sorted((decode(k), v) for k, v in self.num.items())
            ],
        }


class BiSeries(GradedSeries):
    """Truncated bigraded series in two odd-time alphabets t and t*.

    A monomial is a pair (t-monomial, t*-monomial).
    """

    __slots__ = ()

    def __init__(self, W, Wstar, terms=None):
        super().__init__(bi_codec(W, Wstar), terms)

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

    def to_json(self):
        decode, den = self.codec.decode, self.den
        return {
            "truncation_weight": self.truncation_weight,
            "truncation_weight_star": self.truncation_weight_star,
            "terms": [
                {
                    "exps": {str(m): e for m, e in kt},
                    "exps_star": {str(m): e for m, e in ks},
                    "coeff": str(Fraction(v, den)),
                }
                for (kt, ks), v in sorted((decode(k), v) for k, v in self.num.items())
            ],
        }
