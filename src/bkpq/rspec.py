"""The weight function r(n) and the partition products built from it.

Every BKP series term is weighted by r_lambda = prod_i r(1)...r(n_i).
All shipped variants satisfy the reflection symmetry r(n) = r(1-n);
nonpositive arguments are always served through that reflection.
"""

from fractions import Fraction
from math import gcd


class RValueError(ValueError):
    """r(n) is undefined or out of the tabulated range."""


class RSpec:
    """Base for weight-function variants.  Subclasses define r at n >= 1.

    A spec must not be changed once built: r_value keeps the values it has
    computed on the instance, r_prefix each prefix as its reduced int pair,
    content_product_kp its content rows, tau.tau_bkp its series per
    (W, Wstar) and ops.tau_x_series its one-point coefficients per
    (n_max, W) (a failed value or build is not kept).  r_lambda_pair
    multiplies the kept prefixes on each call.
    """

    def _r_positive(self, n):
        raise NotImplementedError

    def r_value(self, n):
        """Exact value of r at any integer n, via reflection for n <= 0."""
        if n <= 0:
            n = 1 - n
        values = self.__dict__.get("_values")
        if values is None:
            values = self.__dict__["_values"] = {}
        v = values.get(n)
        if v is None:
            v = values[n] = self._r_positive(n)
        return v

    def r_prefix(self, n):
        """The telescoped product r(1) r(2) ... r(n), 1 for n <= 0."""
        return Fraction(*self._prefix_pairs(n)[max(n, 0)])

    def _prefix_pairs(self, n):
        """The prefixes r(1)...r(k), k = 0..n at least, as reduced int pairs
        kept on the spec and extended on demand; once a product is 0, later
        ones are (0, 1) without asking r for a value."""
        prefixes = self.__dict__.get("_prefixes")
        if prefixes is None:
            prefixes = self.__dict__["_prefixes"] = [(1, 1)]
        while len(prefixes) <= n:
            num, den = prefixes[-1]
            if num:
                v = self.r_value(len(prefixes))
                num, den = num * v.numerator, den * v.denominator
                g = gcd(num, den)
                num, den = num // g, den // g
            prefixes.append((num, den))
        return prefixes

    def r_lambda_pair(self, lam):
        """r_lambda = prod_i r(1)...r(n_i) over the parts of a strict
        partition, as the int pair (numerator, denominator), not reduced:
        the products of the prefixes' numerators and of their denominators,
        or (0, 1) when r_lambda is 0.

        The prefixes are extended once, to the largest part, so r is asked
        in the order of the prefixes; the other parts read the kept pairs.
        """
        prefixes, num, den = self._prefix_pairs(lam.parts[0] if lam.parts else 0), 1, 1
        for p in lam.parts:
            n, d = prefixes[p]
            if not n:
                return 0, 1
            num, den = num * n, den * d
        return num, den

    def r_lambda(self, lam):
        """r_lambda as one Fraction, from `r_lambda_pair`."""
        return Fraction(*self.r_lambda_pair(lam))


class Ones(RSpec):
    def _r_positive(self, n):
        return Fraction(1)

    def __repr__(self):
        return "Ones()"


class Cutoff(RSpec):
    """r(n) = 1 for n < M and 0 for n >= M; yields rational solutions.

    M = 1 is the trivial tau = 1; M < 1 is refused, as it is no separate case.
    """

    def __init__(self, M):
        self.M = int(M)
        if self.M < 1:
            raise RValueError("cutoff M must be at least 1, got M=%d" % self.M)

    def _r_positive(self, n):
        return Fraction(1) if n < self.M else Fraction(0)

    def __repr__(self):
        return "Cutoff(M=%d)" % self.M


class RationalPS(RSpec):
    """r(n) = prod(a_i + n - 1) / prod(b_i + n - 1) for n > 0.

    Reflection-extended to nonpositive n.  The prefix r(1)...r(n) is the
    Pochhammer quotient prod (a_i)_n / prod (b_i)_n, the n-th coefficient of
    pFs times n!; tau.hyper_one_var and tau.tau_hyper_tinfty read it from
    here.  A nonpositive integer b_i, which makes a denominator factor
    vanish at some n >= 1, is refused.  Each a_i or b_i = p/q is also kept as
    (p, q), so r(n) multiplies the ints p + (n - 1) q and q into one Fraction.
    """

    def __init__(self, a, b):
        self.a = tuple(Fraction(v) for v in a)
        self.b = tuple(Fraction(v) for v in b)
        for bi in self.b:
            # b_i + n - 1 = 0 at some n >= 1 iff b_i is a nonpositive integer
            if bi.denominator == 1 and bi <= 0:
                raise RValueError("b parameter %s hits zero denominator" % bi)
        self._pairs = [[(v.numerator, v.denominator) for v in vs] for vs in (self.a, self.b)]

    def _r_positive(self, n):
        m, (a, b), num, den = n - 1, self._pairs, 1, 1
        for p, q in a:
            num, den = num * (p + m * q), den * q
        for p, q in b:
            num, den = num * q, den * (p + m * q)
        return Fraction(num, den)

    def __repr__(self):
        return "RationalPS(a=[%s], b=[%s])" % (
            ",".join(map(str, self.a)),
            ",".join(map(str, self.b)),
        )


class SymmetricRational(RationalPS):
    """r(n) = prod((n-1/2)^2 - alpha_k^2) / prod((n-1/2)^2 - beta_k^2).

    Symmetric under n -> 1-n by construction.  As (n-1/2)^2 - c^2 =
    (1/2+c + n-1)(1/2-c + n-1), this is the RationalPS with a = 1/2 +- alpha_k
    and b = 1/2 +- beta_k.  beta_k must not be a half-integer, else a
    denominator factor vanishes.
    """

    def __init__(self, alpha, beta):
        self.alpha = tuple(Fraction(v) for v in alpha)
        self.beta = tuple(Fraction(v) for v in beta)
        for bk in self.beta:
            if (2 * bk).denominator == 1:
                raise RValueError("beta parameter %s is a half-integer" % bk)
        half = Fraction(1, 2)
        super().__init__(
            *([half + s * c for c in cs for s in (1, -1)] for cs in (self.alpha, self.beta))
        )

    def __repr__(self):
        return "SymmetricRational(alpha=[%s], beta=[%s])" % (
            ",".join(map(str, self.alpha)),
            ",".join(map(str, self.beta)),
        )


class TParam(RSpec):
    """r(n) = e^{T_{n-1} - T_n}, stored through exact values u_n = e^{T_n}.

    T_0 = 0 and T_{-n} = -T_n are built in (u_0 = 1, u_{-n} = 1/u_n).
    r(1)...r(n) telescopes to 1/u_n, so r_lambda is linear in each 1/u_n.
    """

    def __init__(self, exp_values):
        self.u = {}
        for n, v in exp_values.items():
            n = int(n)
            v = Fraction(v)
            if n <= 0:
                raise ValueError("supply e^{T_n} for positive n only")
            if v <= 0:
                raise ValueError("e^{T_n} must be positive")
            self.u[n] = v

    def _u(self, n):
        if n == 0:
            return Fraction(1)
        if n < 0:
            return 1 / self._u(-n)
        if n not in self.u:
            raise RValueError("e^{T_%d} not supplied" % n)
        return self.u[n]

    def _r_positive(self, n):
        return self._u(n - 1) / self._u(n)

    def __repr__(self):
        return "TParam(%s)" % (", ".join("e^T%d=%s" % (n, v) for n, v in sorted(self.u.items())),)


class Table(RSpec):
    """Free tabulated values at n = 1..n_max, reflection-extended."""

    def __init__(self, values):
        self.values = tuple(Fraction(v) for v in values)

    def _r_positive(self, n):
        if n > len(self.values):
            raise RValueError("r(%d) outside tabulated range" % n)
        return self.values[n - 1]

    def __repr__(self):
        return "Table([%s])" % (",".join(map(str, self.values)),)


class Product(RSpec):
    """Pointwise product of two weight functions."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _r_positive(self, n):
        return self.left.r_value(n) * self.right.r_value(n)

    def __repr__(self):
        return "Product(%r, %r)" % (self.left, self.right)


def hook_star(lam):
    """Shifted hook product: (prod n_i!) prod_{i<j} (n_i+n_j)/(n_i-n_j)."""
    parts = lam.parts
    out = Fraction(1)
    for p in parts:
        for k in range(2, p + 1):
            out *= k
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            out *= Fraction(parts[i] + parts[j], parts[i] - parts[j])
    return out


def content_product_kp(spec, mu):
    """prod over nodes (i,j) of mu of r(j-i), reflection-served below 1, as
    the int pair (numerator, denominator), not reduced; (0, 1) if it is 0.

    Row i (from 0) of length p gives r(-i)...r(p-i-1) whatever the other
    rows are: it is walked once, up to its first zero cell, and kept on the
    spec.  So r is asked in the order of a walk over every cell, once.
    """
    rows = spec.__dict__.setdefault("_content_rows", {})
    num = den = 1
    for i, p in enumerate(mu.parts):
        key = (i, p)
        row = rows.get(key)
        if row is None:
            n = d = 1
            for c in range(-i, p - i):
                v = spec.r_value(c)
                n, d = n * v.numerator, d * v.denominator
                if not n:
                    break
            row = rows[key] = n, d
        if not row[0]:
            return 0, 1
        num, den = num * row[0], den * row[1]
    return num, den


def parse_rational(text):
    """An exact rational from text such as 3, -1/2 or 0.25."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad rational %r" % text) from None


def parse_rational_list(text):
    """A comma list of rationals; empty text is the empty list."""
    text = text.strip()
    if not text:
        return []
    return [parse_rational(v) for v in text.split(",")]


def _parse_kv(name, body, fields):
    """The key=value fields of an r-spec body; an unknown or repeated key is refused."""
    out = {}
    for field in body.split(";"):
        if not field:
            continue
        key, _, val = field.partition("=")
        key = key.strip()
        if key not in fields:
            known = ", ".join(fields)
            raise ValueError("%s has no field %r; its fields are %s" % (name, key, known))
        if key in out:
            raise ValueError("%s field %s given twice" % (name, key))
        out[key] = val.strip()
    return out


def parse_rspec(text):
    """Parse the CLI weight-function grammar.

    ones | cutoff:M=3 | ratps:a=1/2,3;b=5/2 | symrat:alpha=1/3;beta= |
    tparam:T1=2,T2=6 (values are exact e^{T_n}) | table:1,1/2,0 |
    prod:(spec),(spec)
    """
    text = text.strip()
    name, _, body = text.partition(":")
    name = name.strip().lower()
    if name == "ones":
        if body.strip():
            raise ValueError("ones takes no fields, got %r" % body)
        return Ones()
    if name == "cutoff":
        kv = _parse_kv(name, body, ("M",))
        if "M" not in kv:
            raise ValueError("cutoff needs the field M, as in cutoff:M=3")
        return Cutoff(int(kv["M"]))
    if name == "ratps":
        kv = _parse_kv(name, body, ("a", "b"))
        return RationalPS(
            parse_rational_list(kv.get("a", "")),
            parse_rational_list(kv.get("b", "")),
        )
    if name == "symrat":
        kv = _parse_kv(name, body, ("alpha", "beta"))
        return SymmetricRational(
            parse_rational_list(kv.get("alpha", "")),
            parse_rational_list(kv.get("beta", "")),
        )
    if name == "tparam":
        exp_values = {}
        for field in body.split(","):
            if not field:
                continue
            key, _, val = field.partition("=")
            key = key.strip()
            if not key.startswith("T") or not key[1:].isdigit():
                raise ValueError("bad tparam field %r" % field)
            n = int(key[1:])
            if n in exp_values:
                raise ValueError("tparam field T%d given twice" % n)
            exp_values[n] = parse_rational(val)
        return TParam(exp_values)
    if name == "table":
        return Table(parse_rational_list(body))
    if name == "prod":
        if not body.startswith("(") or not body.endswith(")"):
            raise ValueError("prod wants prod:(spec),(spec)")
        depth = 0
        split_at = None
        for k, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split_at = k
                break
        if split_at is None:
            raise ValueError("prod wants two specs")
        left = body[:split_at].strip()[1:-1]
        right = body[split_at + 1 :].strip()[1:-1]
        return Product(parse_rspec(left), parse_rspec(right))
    raise ValueError("unknown r-spec %r" % text)
