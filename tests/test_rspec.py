"""Weight-function variants, reflection symmetry, and content products."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkpq.partitions import (
    Partition,
    StrictPartition,
    double,
    enumerate_partitions,
    enumerate_strict,
)
from bkpq.rspec import (
    Cutoff,
    Ones,
    Product,
    RationalPS,
    RSpec,
    RValueError,
    SymmetricRational,
    Table,
    TParam,
    content_product_kp,
    hook_star,
    parse_rspec,
)

F = Fraction


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1): the oracle that
    RationalPS's prefixes and tau's hypergeometric outputs are held to."""
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


def test_ones():
    spec = Ones()
    assert spec.r_value(5) == 1
    assert spec.r_value(-5) == 1
    assert spec.r_lambda(StrictPartition([4, 2])) == 1


def test_cutoff():
    spec = Cutoff(3)
    assert [spec.r_value(n) for n in (1, 2, 3, 4)] == [1, 1, 0, 0]
    assert spec.r_value(-2) == spec.r_value(3) == 0
    assert spec.r_lambda(StrictPartition([2, 1])) == 1
    assert spec.r_lambda(StrictPartition([3, 1])) == 0
    assert Cutoff(1).r_prefix(1) == 0
    for M in (0, -3):
        with pytest.raises(RValueError, match="M=%d" % M):
            Cutoff(M)


def test_rational_ps_values():
    spec = RationalPS([F(1, 2), 3], [F(5, 2)])
    assert spec.r_value(1) == F(1, 2) * 3 / F(5, 2)
    assert spec.r_value(2) == F(3, 2) * 4 / F(7, 2)
    # reflection-served below 1
    assert spec.r_value(0) == spec.r_value(1)
    assert spec.r_value(-3) == spec.r_value(4)


def test_rational_ps_prefix_is_pochhammer_quotient():
    spec = RationalPS([F(1, 2), 3], [F(5, 2)])
    for n in range(9):
        want = pochhammer(F(1, 2), n) * pochhammer(3, n) / pochhammer(F(5, 2), n)
        assert spec.r_prefix(n) == want


def fraction_r(spec, n):
    """r(n) of a RationalPS as its _r_positive built it before a and b were
    kept as int pairs: a Fraction loop over a_i + n - 1 and b_i + n - 1, at
    1 - n for n <= 0.  The reference that the integer r(n) is held to."""
    if n <= 0:
        n = 1 - n
    num = Fraction(1)
    for ai in spec.a:
        num *= ai + n - 1
    den = Fraction(1)
    for bi in spec.b:
        den *= bi + n - 1
    return num / den


# negative, non-integer and zero-hitting parameters: a = -3 makes r(4) = 0,
# a = 0 makes r(1) = 0, b = -5/2 makes the factors b + n - 1 of r(1), r(2)
# and r(3) negative, and symrat's alpha = 7/2 is the a = 1/2 - 7/2 = -3 of
# r(4) = 0
INTEGER_R_SPECS = [
    "ratps:a=-3,1/2;b=5/4",
    "ratps:a=0,-7/3;b=-5/2",
    "ratps:a=-2/3,4;b=-1/3,7/2",
    "ratps:a=;b=-9/4,3",
    "ratps:a=-11/5;b=",
    "symrat:alpha=7/2;beta=-4/3",
    "symrat:alpha=-5/3,1/4;beta=1/6",
    "symrat:alpha=;beta=2/7,-3/4",
]


@pytest.mark.parametrize("text", INTEGER_R_SPECS)
def test_integer_r_value_is_the_fraction_loop(text):
    spec = parse_rspec(text)
    for n in range(-20, 21):
        got = spec.r_value(n)
        assert type(got) is Fraction and got == fraction_r(spec, n), (text, n)


class AskedRationalPS(RationalPS):
    """A RationalPS that records each n it is asked r(n) at."""

    def __init__(self, a, b):
        super().__init__(a, b)
        self.asked = []

    def _r_positive(self, n):
        self.asked.append(n)
        return super()._r_positive(n)


def test_integer_r_zero_ends_the_prefixes_without_asking_r():
    spec = AskedRationalPS([-3, F(1, 2)], [F(5, 4)])
    assert spec.r_prefix(12) == 0
    assert spec.asked == [1, 2, 3, 4] and spec.r_value(4) == 0
    assert spec._prefixes[4:] == [(0, 1)] * 9
    assert [spec.r_prefix(n) for n in range(5)] == [_fresh_prefix(spec, n) for n in range(5)]
    assert spec.asked == [1, 2, 3, 4]


# rationals of small height; a b that is a nonpositive integer is refused
_RATIONALS = st.fractions(min_value=-7, max_value=7, max_denominator=6)
_B_VALUES = _RATIONALS.filter(lambda v: v.denominator != 1 or v > 0)


@settings(max_examples=80)
@given(a=st.lists(_RATIONALS, max_size=4), b=st.lists(_B_VALUES, max_size=4))
def test_integer_r_value_matches_the_fraction_loop_on_random_parameters(a, b):
    spec = RationalPS(a, b)
    for n in range(-20, 21):
        assert spec.r_value(n) == fraction_r(spec, n), n
    for n, (num, den) in enumerate(spec._prefix_pairs(15)):
        assert den > 0 and gcd(num, den) == 1 and F(num, den) == _fresh_prefix(spec, n), n


def _fresh_prefix(spec, n):
    out = F(1)
    for k in range(1, n + 1):
        out *= spec.r_value(k)
    return out


class Shifted(RSpec):
    """Overrides r_value itself, as a user subclass may."""

    def r_value(self, n):
        return F(n + 5)


def test_r_prefix_memo_matches_fresh_product():
    makers = [
        lambda: RationalPS([F(1, 2), 3], [F(5, 2)]),
        lambda: SymmetricRational([F(1, 3)], [F(1, 5)]),
        lambda: Product(Cutoff(4), RationalPS([2], [F(1, 3)])),
        Shifted,
    ]
    for make in makers:
        for order in (range(9, -1, -1), range(10), (3, 7, 2, 9, 0, 5)):
            spec, oracle = make(), make()
            for n in order:
                assert spec.r_prefix(n) == _fresh_prefix(oracle, n), (spec, n)
        # each kept prefix is its reduced int pair, (0, 1) once it is 0
        spec.r_prefix(15)
        for n, (num, den) in enumerate(spec._prefixes):
            assert den > 0 and gcd(num, den) == 1, (spec, n)
            assert F(num, den) == _fresh_prefix(oracle, n), (spec, n)
    assert Shifted().r_prefix(3) == 6 * 7 * 8


def test_r_prefix_past_a_zero_asks_no_further_value():
    spec = Table([1, 0])
    assert spec.r_prefix(5) == 0
    assert spec.r_prefix(1) == 1


def test_r_prefix_out_of_range_raises_every_time():
    spec = Table([1, 2])
    for _ in range(2):
        with pytest.raises(RValueError):
            spec.r_prefix(4)
    assert spec.r_prefix(2) == 2
    assert spec.r_prefix(1) == 1


# one spec per family that the spec-scan benchmark draws, Cutoff(3), whose
# prefixes reach 0, the other three specs that verify ships, a RationalPS
# with r(1) = 0, a table whose prefixes reach 0 before it runs out, a
# symmetric form with a beta, and a product
R_LAMBDA_SPECS = [
    "table:" + ",".join(["1/2", "4", "1", "5/3", "5/2", "3/2", "2/5", "1/3"] * 2),
    "tparam:" + ",".join("T%d=%s" % (n, F(n % 4 + 1, n % 3 + 1)) for n in range(1, 17)),
    "ratps:a=5,1/3;b=5/4",
    "symrat:alpha=5/3;beta=5/4",
    "cutoff:M=3",
    "ones",
    "cutoff:M=2",
    "symrat:alpha=1/3;beta=",
    "ratps:a=0,1/2;b=3/2",
    "table:1,1/2,0,3",
    "symrat:alpha=1/3;beta=2/7",
    "prod:(ratps:a=2;b=1/3),(symrat:alpha=1/4;beta=3/5)",
]

# a table and a tparam drawn as the spec-scan benchmark draws them at W = 14
SCAN_SHAPED_SPECS = [
    "table:5/3,5,5/2,3,1,2,4,5/2,1,2/5,5/4,3/5,1/4,1/2,5/3,4/5",
    "tparam:T1=1/3,T2=5,T3=5/4,T4=3/2,T5=1,T6=3/5,T7=1/2,T8=2/3,T9=1,T10=4/5,T11=3/2,"
    "T12=5/2,T13=4/3,T14=5/4,T15=3/5,T16=3",
]


def prefix_pair(spec, lam):
    """r_lambda as RSpec.r_lambda built it before the pair was kept: r_prefix
    asked at each part, largest first, the numerators and denominators
    multiplied as ints, and (0, 1) from the first zero prefix on.  The
    reference that r_lambda_pair is held to."""
    num = den = 1
    for p in lam.parts:
        r = spec.r_prefix(p)
        if not r:
            return 0, 1
        num *= r.numerator
        den *= r.denominator
    return num, den


@pytest.mark.parametrize("text", R_LAMBDA_SPECS + SCAN_SHAPED_SPECS)
def test_r_lambda_is_the_fraction_product_of_prefixes(text):
    spec, oracle = parse_rspec(text), parse_rspec(text)
    for lam in enumerate_strict(14):
        want = prefix_pair(oracle, lam)
        assert spec.r_lambda_pair(lam) == want, (text, lam)
        want = F(1)
        for p in lam.parts:
            want *= oracle.r_prefix(p)
        got = spec.r_lambda(lam)
        assert type(got) is Fraction and got == want, (text, lam)
        assert F(*spec.r_lambda_pair(lam)) == spec.r_lambda(lam) == want
    # the pairs r_lambda_pair multiplied are the reduced prefixes
    for n, (num, den) in enumerate(spec._prefixes):
        assert den > 0 and gcd(num, den) == 1 and F(num, den) == oracle.r_prefix(n), (text, n)


class AskedTParam(TParam):
    """A TParam that records each n it is asked r(n) at."""

    def __init__(self, exp_values):
        super().__init__(exp_values)
        self.asked = []

    def _r_positive(self, n):
        self.asked.append(n)
        return super()._r_positive(n)


# e^{T_n} for n <= 5 only: every lambda with a part above 5 raises
RUNS_OUT = {1: 2, 2: F(1, 3), 3: 5, 4: F(3, 2), 5: 7}


def test_r_lambda_pair_of_a_tparam_that_runs_out_follows_the_prefix_route():
    spec, oracle = AskedTParam(RUNS_OUT), AskedTParam(RUNS_OUT)
    raised = 0
    for _ in range(2):
        for lam in enumerate_strict(14):
            try:
                want = prefix_pair(oracle, lam)
            except RValueError as e:
                want = "raises %s" % e
            try:
                got = spec.r_lambda_pair(lam)
            except RValueError as e:
                got = "raises %s" % e
                raised += 1
            assert got == want and spec.asked == oracle.asked, lam
    assert raised == 2 * sum(lam.parts[0] > 5 for lam in enumerate_strict(14))
    # r(1)..r(5) once each; r(6), which fails, is asked again at each raise
    assert spec.asked == [1, 2, 3, 4, 5] + [6] * raised


@pytest.mark.parametrize(
    "text, want",
    [
        ("ones", "Ones()"),
        ("cutoff:M=3", "Cutoff(M=3)"),
        ("ratps:a=1/2,3;b=5/2", "RationalPS(a=[1/2,3], b=[5/2])"),
        ("ratps:a=;b=", "RationalPS(a=[], b=[])"),
        ("symrat:alpha=1/3;beta=1/5", "SymmetricRational(alpha=[1/3], beta=[1/5])"),
        ("tparam:T2=6,T1=2", "TParam(e^T1=2, e^T2=6)"),
        ("table:1,1/2,0", "Table([1,1/2,0])"),
        (
            "prod:(ones),(prod:(cutoff:M=2),(table:1/3))",
            "Product(Ones(), Product(Cutoff(M=2), Table([1/3])))",
        ),
        (
            "prod:(table:1,1/2),(ratps:a=1/2,3;b=5/2)",
            "Product(Table([1,1/2]), RationalPS(a=[1/2,3], b=[5/2]))",
        ),
    ],
)
def test_repr_text_of_every_spec_kind(text, want):
    spec = parse_rspec(text)
    for _ in range(2):  # the second read is the kept text
        assert repr(spec) == want


def test_r_lambda_out_of_range_raises_every_time():
    spec = Table([1, F(1, 2)])
    for _ in range(3):
        with pytest.raises(RValueError):
            spec.r_lambda(StrictPartition([3]))
    assert spec.r_lambda(StrictPartition([2, 1])) == F(1, 2)


def test_r_value_memo_matches_fresh_value():
    makers = [
        lambda: RationalPS([F(1, 2), 3], [F(5, 2)]),
        lambda: SymmetricRational([F(1, 3)], [F(1, 5)]),
        lambda: Table([1, F(1, 2), 0, 3]),
        lambda: Product(Cutoff(4), RationalPS([2], [F(1, 3)])),
    ]
    for make in makers:
        spec, oracle = make(), make()
        # repeated, reflected and out of order
        for n in (3, -2, 1, 0, 4, 3, -3, 1, 2):
            assert spec.r_value(n) == oracle._r_positive(n if n > 0 else 1 - n), (spec, n)


def test_r_value_out_of_range_raises_every_time():
    spec = Table([1, 2])
    for n in (4, -3, 4):
        with pytest.raises(RValueError):
            spec.r_value(n)
    assert spec.r_value(2) == 2
    assert spec.r_value(-1) == 2


def test_rational_ps_rejects_vanishing_denominator():
    with pytest.raises(RValueError):
        RationalPS([1], [0])
    with pytest.raises(RValueError):
        RationalPS([1], [-2])
    RationalPS([1], [F(-1, 2)])  # non-integer is fine


def test_symmetric_rational():
    spec = SymmetricRational([F(1, 3)], [])
    assert spec.r_value(1) == F(1, 4) - F(1, 9)
    # the formula itself is symmetric under n -> 1-n, at every integer
    for n in range(-6, 7):
        assert spec._r_positive(1 - n) == spec._r_positive(n)


def test_symmetric_rational_prefix_pochhammer_identity():
    a = F(1, 3)
    spec = SymmetricRational([a], [])
    for n in range(10):
        want = pochhammer(F(1, 2) - a, n) * pochhammer(F(1, 2) + a, n)
        assert spec.r_prefix(n) == want


def _symmetric_rational_formula(alpha, beta, n):
    """prod((n-1/2)^2 - alpha_k^2) / prod((n-1/2)^2 - beta_k^2) as written."""
    s = (F(n) - F(1, 2)) ** 2
    num = den = F(1)
    for ak in alpha:
        num *= s - ak * ak
    for bk in beta:
        den *= s - bk * bk
    return num / den


@pytest.mark.parametrize(
    "text", ["symrat:alpha=1/3;beta=1/5", "symrat:alpha=5/3;beta=5/4", "symrat:alpha=;beta=2/3"]
)
def test_symmetric_rational_is_its_product_formula(text):
    # read as a RationalPS with a = 1/2 +- alpha_k and b = 1/2 +- beta_k
    spec = parse_rspec(text)
    for n in range(-12, 13):
        assert spec.r_value(n) == _symmetric_rational_formula(spec.alpha, spec.beta, n), n


def test_symmetric_rational_rejects_half_integer_beta():
    # its own check comes first: 1/2 - 3/2 = -1 would be RationalPS's zero b
    with pytest.raises(RValueError, match="^beta parameter 3/2 is a half-integer$"):
        SymmetricRational([], [F(3, 2)])
    with pytest.raises(RValueError, match="^beta parameter 2 is a half-integer$"):
        SymmetricRational([], [2])


def test_tparam():
    spec = TParam({1: F(2), 2: F(6), 3: F(30)})
    assert spec.r_value(1) == F(1, 2)  # u_0 / u_1
    assert spec.r_value(2) == F(2, 6)
    # u_{-n} = 1/u_n makes the formula itself symmetric under n -> 1-n
    for n in range(-2, 4):
        assert spec._r_positive(1 - n) == spec._r_positive(n)
    # r(1)...r(n) telescopes to 1/u_n
    for n in range(4):
        assert spec.r_prefix(n) == 1 / spec._u(n), n
    assert spec.r_prefix(3) == F(1, 30)
    assert spec.r_lambda(StrictPartition([2, 1])) == F(1, 6) * F(1, 2)
    with pytest.raises(RValueError):
        spec.r_value(4)
    with pytest.raises(ValueError):
        TParam({1: F(-1)})


def test_tparam_r_lambda_telescopes():
    spec = TParam({n: F(n + 1, n) for n in range(1, 9)})
    for lam in enumerate_strict(8):
        want = F(1)
        for p in lam.parts:
            want /= spec._u(p)
        assert spec.r_lambda(lam) == want


def test_table_and_product():
    tab = Table([F(1, 2), F(3)])
    assert tab.r_value(2) == 3
    assert tab.r_value(-1) == 3
    with pytest.raises(RValueError):
        tab.r_value(3)
    prod = Product(Cutoff(3), RationalPS([2], []))
    assert prod.r_value(2) == 3
    assert prod.r_value(3) == 0


def test_hook_star_examples():
    assert hook_star(StrictPartition([])) == 1
    assert hook_star(StrictPartition([3])) == 6
    assert hook_star(StrictPartition([2, 1])) == 6
    assert hook_star(StrictPartition([3, 1])) == 12
    assert hook_star(StrictPartition([4, 2])) == 144


def test_hook_star_divides_factorial():
    for lam in enumerate_strict(10):
        fact = 1
        for k in range(2, lam.weight + 1):
            fact *= k
        ratio = fact / hook_star(lam)
        assert ratio.denominator == 1 and ratio >= 1


def test_pochhammer():
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(5, 0) == 1
    assert pochhammer_lambda(F(1, 2), StrictPartition([2, 1])) == F(3, 8)


def test_content_product_kp():
    # cells of (2,1) carry contents 0, 1, -1; reflection sends them
    # to r(1), r(1), r(2)
    spec = RationalPS([2], [])  # r(n) = n + 1
    got = content_product_kp(spec, Partition([2, 1]))
    assert got == (12, 1) and F(*got) == spec.r_value(1) ** 2 * spec.r_value(2)
    # the pair is the product of the numerators over that of the
    # denominators, not reduced: r(1)^2 r(2) = (2/3)^2 (3/2) = 12/18
    assert content_product_kp(Table([F(2, 3), F(3, 2)]), Partition([2, 1])) == (12, 18)
    # a zero factor gives (0, 1) before r is asked for a later content
    assert content_product_kp(Table([1, 0]), Partition([2, 1])) == (0, 1)
    assert content_product_kp(Table([1, 0]), Partition([3, 2, 1])) == (0, 1)


def content_walk(spec, mu):
    """The cell walk that content_product_kp is held to: r(j - i) asked at
    every node (i, j) of mu, row by row, returning (0, 1) at the first 0."""
    num = den = 1
    for i, p in enumerate(mu.parts):
        for j in range(p):
            v = spec.r_value(j - i)
            if not v:
                return 0, 1
            num *= v.numerator
            den *= v.denominator
    return num, den


def _outcome(content_product, spec, mu):
    try:
        return content_product(spec, mu)
    except RValueError as e:
        return "RValueError: %s" % e


class Asked(Table):
    """A Table that records every r_value it is asked for."""

    def __init__(self, values):
        super().__init__(values)
        self.asked = []

    def r_value(self, n):
        self.asked.append(n)
        return super().r_value(n)


# the four specs verify ships, and specs whose r is 0 or runs out of values
CONTENT_SPECS = [
    Ones,
    lambda: Cutoff(2),
    lambda: Cutoff(3),
    lambda: SymmetricRational([F(1, 3)], []),
    lambda: RationalPS([F(1, 2), 3], [F(5, 2)]),
    lambda: Table([1, F(1, 2), 0, 3]),
    lambda: TParam({1: F(2), 2: F(6), 3: F(30), 4: F(7, 2)}),
]


@pytest.mark.parametrize("make", CONTENT_SPECS)
def test_content_product_kp_is_the_cell_walk(make):
    # one spec across every shape, so that rows kept for one shape are
    # read for the next: the same pair, or the same RValueError
    shapes = enumerate_partitions(12)
    for order in (shapes, shapes[::-1]):
        spec = make()
        for mu in order:
            got = _outcome(content_product_kp, spec, mu)
            assert got == _outcome(content_walk, make(), mu), (spec, mu)
            assert _outcome(content_product_kp, spec, mu) == got, (spec, mu)


def test_content_product_kp_asks_r_as_the_walk_does_and_once():
    values = [F(1, 2), 3, F(2, 5), 0, 7]
    for parts in ([3, 2, 1], [6, 1], [2, 2, 2, 1], [5, 5], [4, 4, 1]):
        mu = Partition(parts)
        spec, walk = Asked(values), Asked(values)
        assert _outcome(content_product_kp, spec, mu) == _outcome(content_walk, walk, mu)
        assert spec.asked == walk.asked, parts
        _outcome(content_product_kp, spec, mu)
        assert spec.asked == walk.asked, parts


def rho_content_product(rho, mu, orientation="i-j"):
    """Content product of a user-supplied rho table over an ordinary partition."""
    out = Fraction(1)
    for i, p in enumerate(mu.parts, start=1):  # the nodes (i, j), 1-based
        for j in range(1, p + 1):
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


def make_rho(spec, n_range=12):
    """A factorization table rho with r(n) = rho(-n) rho(n-1)."""
    rho = {}
    for n in range(n_range):
        rho[n] = F(n + 2)
    for n in range(1, n_range):
        rho[-n] = spec.r_value(n) / rho[n - 1]
    return rho


def test_rho_factorization_orientation():
    spec = RationalPS([1], [])  # r(n) = n
    rho = make_rho(spec)
    for lam in enumerate_strict(6):
        assert rho_check(spec, rho, lam, orientation="i-j")
    # the opposite orientation is wrong already for a single part
    lam1 = StrictPartition([1])
    assert not rho_check(spec, rho, lam1, orientation="j-i")
    assert rho_content_product(rho, double(lam1), "j-i") != spec.r_lambda(lam1)


def test_rho_content_product_missing_value():
    with pytest.raises(RValueError):
        rho_content_product({0: F(1)}, Partition([2]))


def test_parse_rspec_grammar():
    assert isinstance(parse_rspec("ones"), Ones)
    c = parse_rspec("cutoff:M=3")
    assert isinstance(c, Cutoff) and c.M == 3
    r = parse_rspec("ratps:a=1/2,3;b=5/2")
    assert r.a == (F(1, 2), F(3)) and r.b == (F(5, 2),)
    s = parse_rspec("symrat:alpha=1/3;beta=")
    assert s.alpha == (F(1, 3),) and s.beta == ()
    t = parse_rspec("tparam:T1=2,T2=6")
    assert t.u == {1: F(2), 2: F(6)}
    tab = parse_rspec("table:1,1/2,0")
    assert tab.values == (F(1), F(1, 2), F(0))
    p = parse_rspec("prod:(cutoff:M=2),(ratps:a=1;b=)")
    assert isinstance(p, Product)
    assert p.r_value(1) == 1 and p.r_value(2) == 0


def test_parse_rspec_errors():
    with pytest.raises(ValueError):
        parse_rspec("nope")
    with pytest.raises(ValueError):
        parse_rspec("prod:cutoff:M=2,ones")
    with pytest.raises(RValueError):
        parse_rspec("symrat:alpha=;beta=1/2")
    # unknown, repeated and stray fields are refused by name, not dropped
    for text, named in [
        ("symrat:alpha=1/3;bta=1/5", "'bta'"),
        ("ratps:a=1;c=2", "'c'"),
        ("tparam:T1=2,T1=3", "T1"),
        ("cutoff:M=3;M=4", "M"),
        ("ones:garbage", "'garbage'"),
        ("tparam:Tx=2", "'Tx=2'"),
        # M < 1 would give tau = 1 like M = 1: no separate case
        ("cutoff:M=0", "M=0"),
        ("cutoff:M=-3", "M=-3"),
    ]:
        with pytest.raises(ValueError, match=named):
            parse_rspec(text)
    # missing optional fields stay valid
    assert parse_rspec("symrat:alpha=1/3").beta == ()
    assert parse_rspec("ratps:a=1;b=").b == ()
