"""Strict and ordinary integer partitions.

Strict partitions (distinct parts) index every term of the BKP series;
ordinary partitions appear on the KP side and as doubles of strict ones.
It also counts shifted standard tableaux, g_lambda = |lambda|! / H*_lambda.
"""


class Partition:
    """An ordinary partition: non-increasing positive integers."""

    __slots__ = ("parts",)
    _order = "non-increasing"

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError("parts must be positive: %r" % (parts,))
            if i + 1 < len(parts) and not self._in_order(p, parts[i + 1]):
                raise ValueError("parts must be %s: %r" % (self._order, parts))
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def _in_order(p, q):
        return p >= q

    @classmethod
    def _trusted(cls, parts):
        """A partition of parts already known to be a valid tuple."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __eq__(self, other):
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self):
        return hash((type(self).__name__, self.parts))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self.parts))

    def to_json(self):
        return list(self.parts)


class StrictPartition(Partition):
    """A strict partition: strictly decreasing positive integers."""

    __slots__ = ()
    _order = "strictly decreasing"

    @staticmethod
    def _in_order(p, q):
        return p > q


ZERO_PARTITION = Partition(())


def _enumerate(max_weight, strict):
    """The partitions with 0 < weight <= max_weight, with distinct parts if
    strict, graded by weight, then lexicographically descending on parts.

    Built anew on each call, as a list the caller may extend; the callers
    that re-read one keep it (qschur._strict_table per cap, tau's conjugate
    pairs per bound).
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    # upto[w][c]: the partitions of w with parts <= c, in that order:
    # those with first part c, then those whose parts are all below c;
    # after a first part c the rest has parts <= c - 1 if strict, else <= c
    cls, below = (StrictPartition, 1) if strict else (Partition, 0)
    upto = [[[()]] * (max_weight + 1)]
    out = []
    for w in range(1, max_weight + 1):
        row = [[]]
        for c in range(1, w + 1):
            row.append([(c,) + rest for rest in upto[w - c][c - below]] + row[c - 1])
        row += [row[w]] * (max_weight - w)
        upto.append(row)
        out.extend(map(cls._trusted, row[w]))
    return out


def enumerate_strict(max_weight):
    """All strict partitions with 0 < weight <= max_weight.

    Order is graded by weight, then lexicographically descending on parts,
    so golden files stay stable.
    """
    return _enumerate(max_weight, True)


def enumerate_partitions(max_weight):
    """All ordinary partitions with 0 < weight <= max_weight, graded order."""
    return _enumerate(max_weight, False)


def conjugate(mu):
    """Transpose of the Young diagram."""
    parts = mu.parts
    if not parts:
        return ZERO_PARTITION
    # the column lengths of a valid partition are positive and non-increasing
    return Partition._trusted(tuple(sum(1 for p in parts if p > j) for j in range(parts[0])))


def double(lam):
    """The double of a strict partition: Frobenius arms n_i, legs n_i - 1.

    Row i <= l is n_i + i.  Column j has length n_j + j - 1, so row i > l
    counts the j with n_j + j > i.
    """
    parts = lam.parts
    if not parts:
        raise ValueError("the zero partition has no double")
    ends = tuple(p + i for i, p in enumerate(parts, start=1))
    below = tuple(sum(1 for e in ends if e > i) for i in range(len(parts) + 1, parts[0] + 1))
    return Partition._trusted(ends + below)


SHIFTED_SYT_BOUND = 10


def count_shifted_syt(lam):
    """Number of standard fillings of the shifted diagram of lam.

    The largest entry sits in a corner, a part that can lose one cell and
    stay strict, so the count sums, over the corners, the count with that
    corner removed; the empty diagram has one filling.  Used as an
    independent oracle against the shifted hook product.
    """
    n = lam.weight
    if n > SHIFTED_SYT_BOUND:
        raise ValueError("weight %d above bound %d" % (n, SHIFTED_SYT_BOUND))

    def count(parts):
        if not parts:
            return 1
        total = 0
        for i, p in enumerate(parts):
            if i + 1 == len(parts) or p - 1 > parts[i + 1]:
                total += count(parts[:i] + ((p - 1,) if p > 1 else ()) + parts[i + 1:])
        return total

    return count(lam.parts)
