"""Acceptance suite: one criterion per test, exact arithmetic throughout.

Each test emits a single PASS/FAIL line (written past pytest's capture so
the verdicts are always visible in the run log) and then asserts.
"""

import random
from fractions import Fraction

import pytest

from bkpq.ops import check_linear_eq_N1
from bkpq.partitions import StrictPartition, count_shifted_syt, double, enumerate_strict
from bkpq.pfaffian import (
    SkewMatrix,
    check_two_alphabet_pfaffian,
    check_xpoint_pfaffian,
    det_fraction_free,
    pfaffian,
)
from bkpq.qschur import XPoint, q_lambda, schur_s
from bkpq.rspec import (
    Cutoff,
    Ones,
    RationalPS,
    SymmetricRational,
    TParam,
    hook_star,
)
from bkpq.tau import (
    check_cauchy,
    check_square,
    check_symmetry_scaling,
    hyper_one_var,
    vacuum_kernel,
)
from test_ops import tau_single_x_coefficients
from test_qschur import eval_at_tinfty
from test_rspec import rho_check

F = Fraction

SHIPPED = [
    Ones(),
    Cutoff(2),
    Cutoff(3),
    SymmetricRational([F(1, 3)], []),
]

ALL_SPECS = SHIPPED + [
    RationalPS([1], [2]),
    TParam({n: F(n + 1) for n in range(1, 10)}),
]


@pytest.fixture
def verdict(capfd):
    def emit(num, name, ok):
        line = "[%02d] %s  %s" % (num, "PASS" if ok else "FAIL", name)
        with capfd.disabled():
            print(line)
        assert ok, line

    return emit


def test_criterion_01_square_of_q_is_doubled_schur(verdict):
    W = 16
    ok = True
    for lam in enumerate_strict(8):
        q = q_lambda(lam, W)
        lhs = q * q * F(1, 2 ** lam.length)
        if not (lhs - schur_s(double(lam), W)).is_zero():
            ok = False
            break
    verdict(1, "2^-l Q_lambda^2 = s_{double(lambda)} for all |lambda| <= 8 at weight 16", ok)


def test_criterion_02_cauchy_kernel(verdict):
    ok = check_cauchy(10).passed
    # the t_1^3 t*_3 coefficient vanishes only via cross-partition cancellation
    mono_t, mono_s = ((1, 3),), ((3, 1),)
    ok = ok and vacuum_kernel(10, 10).coefficient(mono_t, mono_s) == 0
    contribs = []
    for lam in enumerate_strict(3):
        if lam.weight == 3:
            q = q_lambda(lam, 10)
            contribs.append(
                q.coefficient(mono_t) * q.coefficient(mono_s) * F(1, 2 ** lam.length)
            )
    ok = ok and any(contribs) and sum(contribs) == 0
    verdict(2, "Cauchy kernel at weight 10 including zero-cancellation witness", ok)


def test_criterion_03_square_identity(verdict):
    ok = all(check_square(spec, 8).passed for spec in SHIPPED)
    verdict(3, "tau_bkp^2 = tau_kp at weight 8 for the shipped weight functions", ok)


def test_criterion_04_tableaux_and_hook_evaluation(verdict):
    ok = True
    for lam in enumerate_strict(8):
        fact = 1
        for k in range(2, lam.weight + 1):
            fact *= k
        if count_shifted_syt(lam) * hook_star(lam) != fact:
            ok = False
            break
        if eval_at_tinfty(q_lambda(lam, lam.weight)) * hook_star(lam) != 1:
            ok = False
            break
    verdict(4, "tableaux count and principal evaluation match hook products, |lambda| <= 8", ok)


def test_criterion_05_hypergeometric_reduction(verdict):
    cs0 = hyper_one_var([], [], 12)
    fact = 1
    ok = True
    for n, c in enumerate(cs0):
        if n:
            fact *= n
        ok = ok and c == F(1, fact)
    cs1 = hyper_one_var([F(1)], [F(2)], 12)
    fact = 1
    for n, c in enumerate(cs1):
        fact *= n + 1
        ok = ok and c == F(1, fact)
    ok = ok and tau_single_x_coefficients(Ones(), 12) == cs0
    ok = ok and tau_single_x_coefficients(RationalPS([F(1)], [F(2)]), 12) == cs1
    verdict(5, "one-variable hypergeometric coefficients 1/n! and 1/(n+1)! to order 12", ok)


def test_criterion_06_two_alphabet_pfaffian(verdict):
    ok = True
    for spec in (Ones(), Cutoff(2)):
        for N in (1, 2):
            ok = ok and check_two_alphabet_pfaffian(spec, N, 10).passed
        ok = ok and check_two_alphabet_pfaffian(spec, 3, 8).passed
    verdict(6, "Pf(S) = tau(x,y) Vandermonde product, N <= 3, cleared denominators", ok)


def _random_xpoint(rng, n):
    vals = []
    seen = set()
    while len(vals) < n:
        v = F(rng.randint(1, 30), rng.randint(1, 30))
        if abs(v) not in seen:
            seen.add(abs(v))
            vals.append(v if rng.random() < 0.5 else -v)
    return XPoint(vals)


def test_criterion_07_xpoint_pfaffian(verdict):
    rng = random.Random(2026)
    ok = True
    for spec in SHIPPED:
        for N in (2, 3):
            for _ in range(3):
                rep = check_xpoint_pfaffian(spec, _random_xpoint(rng, N), 8)
                ok = ok and rep.passed
    verdict(7, "Pf(R) / Delta(x) reproduces tau at random rational x-points, N in {2,3}", ok)


def test_criterion_08_linear_constraint(verdict):
    ok = True
    for spec in ALL_SPECS:
        for m in (1, 3, 5):
            ok = ok and check_linear_eq_N1(spec, m, 8, 8).passed
    verdict(8, "one-point linear constraint for m in {1,3,5} at order 8, weight 8", ok)


def test_criterion_09_invariances(verdict):
    ok = all(check_symmetry_scaling(spec, 2, 8).passed for spec in SHIPPED)
    verdict(9, "alphabet swap composed with scaling a=2 fixes tau at weight 8", ok)


def test_criterion_10_rho_orientation(verdict):
    spec = RationalPS([1], [])  # r(n) = n
    rho = {n: F(n + 2) for n in range(12)}
    for n in range(1, 12):
        rho[-n] = spec.r_value(n) / rho[n - 1]
    ok = all(rho_check(spec, rho, lam, "i-j") for lam in enumerate_strict(6))
    # negative control: the opposite orientation must already fail at (1)
    ok = ok and not rho_check(spec, rho, StrictPartition([1]), "j-i")
    verdict(10, "rho content product holds with i-j orientation and fails with j-i", ok)


def test_criterion_11_pfaffian_squared(verdict):
    rng = random.Random(77)
    ok = True
    for trial in range(100):
        dim = 2 * rng.randint(1, 4)
        upper = {
            (i, j): F(rng.randint(-20, 20), rng.randint(1, 9))
            for i in range(dim)
            for j in range(i + 1, dim)
        }
        A = SkewMatrix(dim, upper)
        rows = [[A.entry(i, j) for j in range(dim)] for i in range(dim)]
        if pfaffian(A) ** 2 != det_fraction_free(rows):
            ok = False
            break
    verdict(11, "Pf(A)^2 = det(A) on 100 seeded random skew matrices, sizes 2-8", ok)
