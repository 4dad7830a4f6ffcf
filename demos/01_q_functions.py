"""Projective Schur functions from scratch.

Builds a few Q_lambda(t/2) polynomials, shows the square identity that
relates them to ordinary Schur functions of doubled shapes, and counts
shifted standard tableaux two ways.
"""

from fractions import Fraction

from bkpq import StrictPartition, double, enumerate_strict, q_lambda, schur_s
from bkpq.partitions import count_shifted_syt
from bkpq.rspec import hook_star

W = 10

print("Some projective Schur functions (truncated at weight %d):" % W)
for parts in ([1], [2], [3], [2, 1], [3, 1]):
    lam = StrictPartition(parts)
    q = q_lambda(lam, W)
    terms = ", ".join(
        "%s * t%s" % (c, dict(mono)) for mono, c in sorted(q.terms.items())
    )
    print("  Q_%s = %s" % (parts, terms))

print()
print("Square identity: 2^-l Q_lambda^2 equals the Schur function of the")
print("doubled shape (arms lambda_i, legs lambda_i - 1):")
for lam in enumerate_strict(6):
    lhs = q_lambda(lam, 12) * q_lambda(lam, 12) * Fraction(1, 2 ** lam.length)
    rhs = schur_s(double(lam), 12)
    status = "ok" if (lhs - rhs).is_zero() else "MISMATCH"
    print("  %-12s double -> %-12s %s" % (lam.parts, double(lam).parts, status))

print()
print("Shifted tableaux: corner-removal count * hook product = |lambda|!")
for parts in ([3, 1], [4, 2], [5, 2, 1]):
    lam = StrictPartition(parts)
    g = count_shifted_syt(lam)
    print("  lambda=%s  count=%d  hook*=%s" % (parts, g, hook_star(lam)))
