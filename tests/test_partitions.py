"""Partitions: strict/ordinary enumeration, Frobenius coordinates, doubling,
shifted diagrams and tableaux counts."""

import random

import pytest

from bkpq.partitions import (
    Partition,
    StrictPartition,
    conjugate,
    count_shifted_syt,
    double,
    enumerate_partitions,
    enumerate_strict,
    frobenius,
    from_frobenius,
    shifted_cells,
)
from bkpq.rspec import hook_star


def test_strict_rejects_repeats_and_disorder():
    with pytest.raises(ValueError):
        StrictPartition([2, 2])
    with pytest.raises(ValueError):
        StrictPartition([1, 2])
    with pytest.raises(ValueError):
        StrictPartition([2, 0])


def test_strict_is_a_partition_of_its_own_type():
    strict, ordinary = StrictPartition([2, 1]), Partition([2, 1])
    assert strict != ordinary and ordinary != strict
    assert len({strict, ordinary}) == 2
    assert strict == StrictPartition((2, 1)) and hash(strict) == hash(StrictPartition((2, 1)))
    assert ordinary == Partition((2, 1)) and hash(ordinary) == hash(Partition((2, 1)))
    assert repr(strict) == "StrictPartition([2, 1])"
    assert repr(ordinary) == "Partition([2, 1])"
    with pytest.raises(ValueError, match="parts must be strictly decreasing"):
        StrictPartition([2, 2])
    with pytest.raises(ValueError, match="parts must be non-increasing"):
        Partition([1, 2])
    Partition([2, 2])
    for p, name in ((strict, "StrictPartition"), (ordinary, "Partition")):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            p.parts = (3,)


def test_strict_basic_properties():
    lam = StrictPartition([5, 3, 1])
    assert lam.weight == 9
    assert lam.length == 3
    assert lam.to_json() == [5, 3, 1]
    assert StrictPartition([]).weight == 0


def test_enumerate_strict_small():
    got = [p.parts for p in enumerate_strict(4)]
    assert got == [(1,), (2,), (3,), (2, 1), (4,), (3, 1)]


def _strict_of_weight(w, cap):
    """The strict partitions of w with parts <= cap, first part descending,
    by the recursion that enumerate_strict ran before its table."""
    if w == 0:
        yield ()
        return
    for first in range(min(w, cap), 0, -1):
        for rest in _strict_of_weight(w - first, first - 1):
            yield (first,) + rest


def test_enumerate_strict_matches_the_recursion():
    for W in range(21):
        got = enumerate_strict(W)
        assert [p.parts for p in got] == [p for w in range(1, W + 1) for p in _strict_of_weight(w, w)]
        assert all(type(p) is StrictPartition and p == StrictPartition(p.parts) for p in got)


def count_distinct_part_partitions(max_weight):
    """Number of partitions of weight <= max_weight into distinct parts.

    Independent generating-function count: expand prod (1 + q^k).
    """
    coeffs = [1] + [0] * max_weight
    for k in range(1, max_weight + 1):
        for w in range(max_weight, k - 1, -1):
            coeffs[w] += coeffs[w - k]
    return sum(coeffs[1:])


def test_enumerate_strict_counts_match_generating_function():
    # number of partitions into distinct parts, cross-checked against
    # the Euler product expansion
    for w in range(1, 13):
        assert len(list(enumerate_strict(w))) == count_distinct_part_partitions(w)


def test_enumerate_partitions_small():
    got = [p.parts for p in enumerate_partitions(3)]
    assert got == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_each_enumeration_is_a_new_list():
    # callers extend what they get, as in [Partition([])] + enumerate_partitions(W)
    for enumerate_ in (enumerate_strict, enumerate_partitions):
        first = enumerate_(5)
        first.append(None)
        assert enumerate_(5) == first[:-1] and enumerate_(5) is not enumerate_(5)
        with pytest.raises(ValueError):
            enumerate_(-1)


def test_conjugate_examples_and_involution():
    assert conjugate(Partition([3, 1])).parts == (2, 1, 1)
    assert conjugate(Partition([])).parts == ()
    for mu in enumerate_partitions(8):
        assert conjugate(conjugate(mu)) == mu


def test_frobenius_round_trip():
    for mu in enumerate_partitions(9):
        alpha, beta = frobenius(mu)
        assert from_frobenius(alpha, beta) == mu
        # arm/leg lists are strictly decreasing
        assert list(alpha) == sorted(alpha, reverse=True)
        assert list(beta) == sorted(beta, reverse=True)


def test_double_examples():
    assert double(StrictPartition([2])).parts == (3, 1)
    assert double(StrictPartition([2, 1])).parts == (3, 3)
    assert double(StrictPartition([8])).parts == (9,) + (1,) * 7


def test_double_frobenius_coordinates():
    # the double of a strict partition has arms n_i and legs n_i - 1
    for lam in enumerate_strict(8):
        mu = double(lam)
        assert mu.weight == 2 * lam.weight
        alpha, beta = frobenius(mu)
        assert alpha == lam.parts
        assert beta == tuple(p - 1 for p in lam.parts)


def test_shifted_cells():
    # row i (1-based) starts at column i
    cells = set(shifted_cells(StrictPartition([3, 1])))
    assert cells == {(1, 1), (1, 2), (1, 3), (2, 2)}
    for lam in enumerate_strict(7):
        assert len(list(shifted_cells(lam))) == lam.weight


def test_count_shifted_syt_examples():
    assert count_shifted_syt(StrictPartition([])) == 1
    assert count_shifted_syt(StrictPartition([4])) == 1
    assert count_shifted_syt(StrictPartition([2, 1])) == 1
    assert count_shifted_syt(StrictPartition([3, 1])) == 2
    assert count_shifted_syt(StrictPartition([4, 2])) == 5


def test_count_shifted_syt_matches_hook_formula():
    for lam in enumerate_strict(7):
        fact = 1
        for k in range(2, lam.weight + 1):
            fact *= k
        assert count_shifted_syt(lam) * hook_star(lam) == fact


def test_count_shifted_syt_bound():
    with pytest.raises(ValueError):
        count_shifted_syt(StrictPartition([7, 5]))


def test_partitions_hashable():
    rng = random.Random(7)
    pool = list(enumerate_strict(6))
    sample = [pool[rng.randrange(len(pool))] for _ in range(20)]
    assert len(set(sample)) == len({p.parts for p in sample})
