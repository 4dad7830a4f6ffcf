"""The weight function r(n) and the partition products built from it.

Every BKP series term is weighted by r_lambda = prod_i r(1)...r(n_i).
All shipped variants satisfy the reflection symmetry r(n) = r(1-n);
nonpositive arguments are always served through that reflection.
"""

from fractions import Fraction

from .partitions import double


class RValueError(ValueError):
    """r(n) is undefined or out of the tabulated range."""


class RSpec:
    """Base for weight-function variants.  Subclasses define r at n >= 1."""

    def _r_positive(self, n):
        raise NotImplementedError

    def r_value(self, n):
        """Exact value of r at any integer n, via reflection for n <= 0."""
        if n <= 0:
            n = 1 - n
        return self._r_positive(n)

    def r_prefix(self, n):
        """The telescoped product r(1) r(2) ... r(n)."""
        out = Fraction(1)
        for k in range(1, n + 1):
            out *= self.r_value(k)
            if not out:
                return out
        return out

    def r_lambda(self, lam):
        """prod_i r(1)...r(n_i) over the parts of a strict partition."""
        out = Fraction(1)
        for p in lam.parts:
            out *= self.r_prefix(p)
            if not out:
                return out
        return out

    def check_reflection(self, n_max=20):
        return all(self.r_value(n) == self.r_value(1 - n) for n in range(1, n_max + 1))


class Ones(RSpec):
    def _r_positive(self, n):
        return Fraction(1)

    def __repr__(self):
        return "Ones()"


class Cutoff(RSpec):
    """r(n) = 1 for n < M and 0 for n >= M; yields rational solutions."""

    def __init__(self, M):
        self.M = int(M)

    def _r_positive(self, n):
        return Fraction(1) if n < self.M else Fraction(0)

    def __repr__(self):
        return "Cutoff(M=%d)" % self.M


class RationalPS(RSpec):
    """r(n) = prod(a_i + n - 1) / prod(b_i + n - 1) for n > 0.

    Reflection-extended to nonpositive n.  No b_i may make a denominator
    factor vanish at any n >= 1.
    """

    def __init__(self, a, b):
        self.a = tuple(Fraction(v) for v in a)
        self.b = tuple(Fraction(v) for v in b)
        for bi in self.b:
            # b_i + n - 1 = 0 at some n >= 1 iff b_i is a nonpositive integer
            if bi.denominator == 1 and bi <= 0:
                raise RValueError("b parameter %s hits zero denominator" % bi)

    def _r_positive(self, n):
        num = Fraction(1)
        for ai in self.a:
            num *= ai + n - 1
        den = Fraction(1)
        for bi in self.b:
            den *= bi + n - 1
        return num / den

    def __repr__(self):
        return "RationalPS(a=[%s], b=[%s])" % (
            ",".join(map(str, self.a)),
            ",".join(map(str, self.b)),
        )


class SymmetricRational(RSpec):
    """r(n) = prod((n-1/2)^2 - alpha_k^2) / prod((n-1/2)^2 - beta_k^2).

    Symmetric under n -> 1-n by construction; beta_k must not be a
    half-integer, else a denominator factor vanishes.
    """

    def __init__(self, alpha, beta):
        self.alpha = tuple(Fraction(v) for v in alpha)
        self.beta = tuple(Fraction(v) for v in beta)
        for bk in self.beta:
            if (2 * bk).denominator == 1:
                raise RValueError("beta parameter %s is a half-integer" % bk)

    def _r_positive(self, n):
        s = (Fraction(n) - Fraction(1, 2)) ** 2
        num = Fraction(1)
        for ak in self.alpha:
            num *= s - ak * ak
        den = Fraction(1)
        for bk in self.beta:
            den *= s - bk * bk
        return num / den

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

    def r_prefix(self, n):
        return 1 / self._u(n)

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


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1)."""
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def pochhammer_lambda(a, lam):
    """prod_i (a)_{n_i} over the parts of a strict partition."""
    out = Fraction(1)
    for p in lam.parts:
        out *= pochhammer(a, p)
    return out


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
    """prod over nodes (i,j) of mu of r(j-i), reflection-served below 1."""
    out = Fraction(1)
    for (i, j) in mu.cells():
        out *= spec.r_value(j - i)
        if not out:
            return out
    return out


def rho_content_product(rho, mu, orientation="i-j"):
    """Content product of a user-supplied rho table over an ordinary partition."""
    out = Fraction(1)
    for (i, j) in mu.cells():
        c = i - j if orientation == "i-j" else j - i
        if c not in rho:
            raise RValueError("rho(%d) not supplied" % c)
        out *= Fraction(rho[c])
    return out


def rho_check(spec, rho, lam, orientation="i-j"):
    """Does r_lambda match the rho content product over the double of lam?

    Requires r(n) = rho(-n) rho(n-1) on the needed range; the i-j
    orientation is the one that holds (j-i fails already at a single part).
    """
    return spec.r_lambda(lam) == rho_content_product(rho, double(lam), orientation)


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


def _parse_kv(body):
    out = {}
    for field in body.split(";"):
        if not field:
            continue
        key, _, val = field.partition("=")
        out[key.strip()] = val.strip()
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
        return Ones()
    if name == "cutoff":
        kv = _parse_kv(body)
        if "M" not in kv:
            raise ValueError("cutoff needs the field M, as in cutoff:M=3")
        return Cutoff(int(kv["M"]))
    if name == "ratps":
        kv = _parse_kv(body)
        return RationalPS(
            parse_rational_list(kv.get("a", "")),
            parse_rational_list(kv.get("b", "")),
        )
    if name == "symrat":
        kv = _parse_kv(body)
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
            if not key.startswith("T"):
                raise ValueError("bad tparam field %r" % field)
            exp_values[int(key[1:])] = parse_rational(val)
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
