"""Seeded inputs for the three workloads.

Every op descriptor is plain JSON: the worker process receives only the
generated argv, r-spec strings (the CLI grammar) and x-points, never the
seed.  The same (workload, seed) always yields the same op sequence.

Each workload cycles through a fixed list of input families, shuffled per
cycle by the seed, so every run sees the same mix of op costs and run-to-run
spread stays small.  Parameters are drawn so that no op can fail on valid
code and no op degenerates into a cheap special case:

* r-spec parameters are positive rationals, so no Pochhammer factor
  vanishes and no denominator hits zero;
* symrat alpha/beta are never half-integers (r would vanish, or a
  denominator would);
* table/tparam carry W+2 values: check_linear_eq_N1 evaluates r(-W),
  which reflects to r(W+1), so W+1 is the minimum and one more is margin;
* x-points are nonzero with pairwise distinct absolute values, so every
  x_i + x_j is nonzero.
"""

import random
from fractions import Fraction

VERIFY_WEIGHT = 10
PF_N, PF_DEGREE = 4, 8
XPOINT_N, XPOINT_WEIGHT = 8, 10
SCAN_WEIGHT = 14
SCAN_LINEAR_M = (1, 3, 5)

# ops per cycle: one family each
CYCLE = {"cli-verify": 1, "pfaffian-scale": 5, "spec-scan": 4}

# Reports each op must return, by name; a run whose op does less work than
# this is a different workload, not a faster one.
VERIFY_REPORTS = {
    "cauchy": 1,
    "square": 4,
    "symmetry-scaling": 4,
    "pfaffian-two-alphabet": 8,
    "pfaffian-one-alphabet": 4,
    "linear-eq-N1": 12,
}
PFAFFIAN_REPORTS = ["pfaffian-two-alphabet", "pfaffian-one-alphabet"]


def scan_reports(op):
    return ["symmetry-scaling"] + ["linear-eq-N1"] * len(op["m"]) + ["tau-scalar"]


def _rng(workload, seed):
    return random.Random("perfbench:%s:%d" % (workload, seed))


def _hash_seed(seed, op_id):
    """PYTHONHASHSEED of a cold op's interpreter (spec-scan's one process
    uses the workload seed); op 1 gets another than op 0."""
    return seed * 7919 + op_id


def _positive(rng, hi=5):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _not_half_integer(rng):
    while True:
        v = _positive(rng)
        if (2 * v).denominator != 1:
            return v


def _csv(values):
    return ",".join(str(v) for v in values)


def xpoint(rng, n):
    """n nonzero rationals with pairwise distinct absolute values."""
    seen, out = set(), []
    while len(out) < n:
        v = _positive(rng)
        if v not in seen:
            seen.add(v)
            out.append(v if rng.random() < 0.5 else -v)
    return [str(v) for v in out]


def _pfaffian_spec(rng, family):
    if family.startswith("cutoff"):
        return "cutoff:M=%s" % family[-1]
    if family == "symrat":
        return "symrat:alpha=%s;beta=" % _not_half_integer(rng)
    return "ratps:a=%s;b=%s" % (_csv([_positive(rng), _positive(rng)]), _positive(rng))


def _scan_spec(rng, family, W):
    if family == "table":
        return "table:" + _csv(_positive(rng) for _ in range(W + 2))
    if family == "tparam":
        return "tparam:" + ",".join("T%d=%s" % (n, _positive(rng)) for n in range(1, W + 3))
    if family == "ratps":
        return "ratps:a=%s;b=%s" % (_csv([_positive(rng), _positive(rng)]), _positive(rng))
    return "symrat:alpha=%s;beta=%s" % (_not_half_integer(rng), _not_half_integer(rng))


def _times(rng):
    return {str(m): str(_positive(rng) * rng.choice((1, -1))) for m in (1, 3, 5)}


def _families(workload):
    if workload == "pfaffian-scale":
        return ["cutoff2", "cutoff3", "cutoff4", "symrat", "ratps"]
    return ["table", "tparam", "ratps", "symrat"]


def op_stream(workload, seed):
    """Endless op descriptors for one workload; op ids count from 0."""
    rng = _rng(workload, seed)
    op_id = 0
    if workload == "cli-verify":
        first = rng.randrange(10**6)
        while True:
            # op 1 repeats op 0's seed: its stdout must be byte-identical
            s = first if op_id <= 1 else rng.randrange(10**6)
            argv = ["verify", "--suite", "all", "--weight", str(VERIFY_WEIGHT),
                    "--seed", str(s), "--json"]
            yield {"id": op_id, "kind": "cli", "argv": argv, "hash_seed": _hash_seed(seed, op_id)}
            op_id += 1
    families = _families(workload)
    while True:
        order = families[:]
        rng.shuffle(order)
        for family in order:
            if workload == "pfaffian-scale":
                yield {
                    "id": op_id, "hash_seed": _hash_seed(seed, op_id),
                    "kind": "pfaffian", "family": family,
                    "spec": _pfaffian_spec(rng, family), "N": PF_N, "D": PF_DEGREE,
                    "x": xpoint(rng, XPOINT_N), "W": XPOINT_WEIGHT,
                }
            else:
                yield {
                    "id": op_id, "kind": "scan", "family": family,
                    "spec": _scan_spec(rng, family, SCAN_WEIGHT), "W": SCAN_WEIGHT,
                    "m": list(SCAN_LINEAR_M), "t": _times(rng), "tstar": _times(rng),
                }
            op_id += 1


def first_cycle(workload, seed):
    """The first CYCLE[workload] ops: the traced run repeats exactly these."""
    stream = op_stream(workload, seed)
    return [next(stream) for _ in range(CYCLE[workload])]
