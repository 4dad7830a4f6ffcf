"""Strict and ordinary integer partitions.

Strict partitions (distinct parts) index every term of the BKP series;
ordinary partitions appear on the KP side and as doubles of strict ones.
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

    def __lt__(self, other):
        return (self.weight, self.parts) < (other.weight, other.parts)

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


_ENUMERATED = {}  # (strict, max_weight, max_length) -> the partitions, in graded order


def _enumerate(max_weight, strict, max_length=None):
    """The partitions with 0 < weight <= max_weight, with distinct parts if
    strict, and length <= max_length if given, graded by weight, then
    lexicographically descending on parts.

    Built once per (strict, max_weight, max_length); each call gets a new
    list, which the caller may extend.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    key = (strict, max_weight, max_length)
    out = _ENUMERATED.get(key)
    if out is None and max_length is not None:
        out = [lam for lam in _enumerate(max_weight, strict) if lam.length <= max_length]
        _ENUMERATED[key] = out
    elif out is None:
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
        _ENUMERATED[key] = out
    return list(out)


def enumerate_strict(max_weight, max_length=None):
    """All strict partitions with 0 < weight <= max_weight, and with at
    most max_length parts if given.

    Order is graded by weight, then lexicographically descending on parts,
    so golden files stay stable.
    """
    return _enumerate(max_weight, True, max_length)


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


def frobenius(mu):
    """Frobenius coordinates (alpha, beta) of an ordinary partition."""
    parts = mu.parts
    conj = conjugate(mu).parts
    alpha, beta = [], []
    for i in range(len(parts)):
        if parts[i] >= i + 1:
            alpha.append(parts[i] - (i + 1))
            beta.append(conj[i] - (i + 1))
        else:
            break
    return tuple(alpha), tuple(beta)


def from_frobenius(alpha, beta):
    """Reconstruct the partition with given Frobenius arms and legs."""
    r = len(alpha)
    if r != len(beta):
        raise ValueError("arm and leg lists must have equal length")
    if r == 0:
        return ZERO_PARTITION
    rows = [alpha[i] + (i + 1) for i in range(r)]
    # column j has length beta_j + j; rows below the diagonal read off from that
    max_len = beta[0] + 1
    parts = list(rows)
    for i in range(r, max_len):
        parts.append(sum(1 for b in range(r) if beta[b] + b >= i))
    return Partition(tuple(p for p in parts if p > 0))


def double(lam):
    """The double of a strict partition: Frobenius arms n_i, legs n_i - 1."""
    if lam.length == 0:
        raise ValueError("the zero partition has no double")
    alpha = lam.parts
    beta = tuple(n - 1 for n in lam.parts)
    return from_frobenius(alpha, beta)


SHIFTED_SYT_BOUND = 10


def shifted_cells(lam):
    """Cells of the shifted diagram: row i occupies columns i..i+n_i-1 (1-based)."""
    out = []
    for i, p in enumerate(lam.parts, start=1):
        for j in range(i, i + p):
            out.append((i, j))
    return out


def count_shifted_syt(lam, bound=SHIFTED_SYT_BOUND):
    """Number of standard fillings of the shifted diagram of lam.

    Brute force over all fillings, rows and columns strictly increasing.
    Used as an independent oracle against the shifted hook product.
    """
    n = lam.weight
    if n > bound:
        raise ValueError("weight %d above brute-force bound %d" % (n, bound))
    if n == 0:
        return 1
    cells = shifted_cells(lam)
    pos = {c: k for k, c in enumerate(cells)}
    # predecessors that must hold a smaller entry
    preds = []
    for (i, j) in cells:
        ps = []
        if (i, j - 1) in pos:
            ps.append(pos[(i, j - 1)])
        if (i - 1, j) in pos:
            ps.append(pos[(i - 1, j)])
        preds.append(ps)

    count = 0
    filling = [0] * n

    def place(value):
        nonlocal count
        if value > n:
            count += 1
            return
        for k in range(n):
            if filling[k] == 0 and all(filling[p] != 0 for p in preds[k]):
                filling[k] = value
                place(value + 1)
                filling[k] = 0

    place(1)
    return count
