"""Pfaffian representations of the tau series.

Shows the generic Pfaffian kernel, which reads a skew matrix's upper
triangle as a dict (Pf^2 = det against dense rows laid out from it), then
both matrix representations: the two-alphabet identity with cleared
denominators and the x-point matrix whose Pfaffian reproduces the
restricted tau series.
"""

import random
from fractions import Fraction

from bkpq import Cutoff, Ones, RationalPS
from bkpq.pfaffian import (
    check_two_alphabet_pfaffian,
    check_xpoint_pfaffian,
    det_fraction_free,
    pfaffian,
)
from bkpq.qschur import XPoint

rng = random.Random(1)
dim = 6
upper = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
         for i in range(dim) for j in range(i + 1, dim)}
rows = [[upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(dim)]
        for i in range(dim)]
print("Random 6x6 skew matrix:  Pf =", pfaffian(upper, dim),
      "  Pf^2 =", pfaffian(upper, dim) ** 2, "  det =", det_fraction_free(rows))
print()

print("Two-alphabet identity Pf(S) = tau(x, y) * Vandermonde product,")
print("checked as cleared-denominator polynomials up to total degree D:")
for spec, N, D in [(Ones(), 1, 10), (Ones(), 2, 8), (Cutoff(2), 2, 8),
                   (RationalPS([1], [2]), 3, 8)]:
    rep = check_two_alphabet_pfaffian(spec, N, D)
    print("  %-28s N=%d D=%-2d %s" % (rep.params["r"], N, D,
                                      "pass" if rep.passed else "FAIL"))
print()

print("x-point representation Pf(R) = Delta(x) * tau(t(x), t*):")
x = XPoint([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)])
for spec in (Ones(), Cutoff(2), RationalPS([1], [2])):
    rep = check_xpoint_pfaffian(spec, x, 8)
    print("  %-28s N=3 %s" % (rep.params["r"], "pass" if rep.passed else "FAIL"))
