"""One bkpq process of the benchmark.

    python3 perfbench/worker.py once  OP_JSON [SPANS_PATH]
    python3 perfbench/worker.py serve [SPANS_PATH]

`once` imports bkpq, runs one op and prints one JSON result line: the cold
start a CLI user pays on every command.  `serve` imports bkpq, warms the
Q_lambda and h caches at the spec-scan weight, prints a ready line, then runs
one op per JSON line read from stdin until stdin closes: a long-lived library
user.  With SPANS_PATH the tracer is installed after set-up and the spans are
written there when the process ends.

Timestamps are CLOCK_MONOTONIC nanoseconds, which the parent process shares,
so it can time interpreter start and import from its own spawn time.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_FAILED = 3


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_package():
    sys.path[:0] = [HERE, SRC]
    import bkpq.cli  # noqa: F401  (loads every bkpq module)


def warm_up(W):
    """Fill the Q_lambda and h caches at weight W through the public API."""
    from bkpq import partitions, qschur

    for lam in partitions.enumerate_strict(W):
        qschur.q_lambda(lam, W)
    for n in range(W + 1):
        qschur.h_k(n, W)


def run_op(op):
    """Run one op descriptor; returns what the parent needs to check it."""
    from fractions import Fraction

    from bkpq import cli, ops, pfaffian, qschur, rspec, tau

    kind = op["kind"]
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(op["argv"]))
        return {"rc": rc, "stdout": out.getvalue()}
    spec = rspec.parse_rspec(op["spec"])
    if kind == "pfaffian":
        x = qschur.XPoint([Fraction(v) for v in op["x"]])
        reports = [
            pfaffian.check_two_alphabet_pfaffian(spec, op["N"], op["D"]),
            pfaffian.check_xpoint_pfaffian(spec, x, op["W"]),
        ]
    elif kind == "scan":
        W = op["W"]
        reports = [tau.check_symmetry_scaling(spec, 2, W)]
        reports += [ops.check_linear_eq_N1(spec, m, W, W) for m in op["m"]]
        reports.append(tau.check_tau_scalar(
            spec, W,
            {int(m): Fraction(v) for m, v in op["t"].items()},
            {int(m): Fraction(v) for m, v in op["tstar"].items()},
        ))
    else:
        raise ValueError("unknown op kind %r" % kind)
    return {"reports": [r.to_json() for r in reports]}


def _cache_delta(before, after):
    """Per owner module: [hits, misses] gained during the op, [currsize] after it."""
    out = {}
    for key, (hits, misses, size) in after.items():
        h0, m0, _ = before.get(key, (0, 0, 0))
        owner = key.split(".", 1)[0]
        acc = out.setdefault(owner, [0, 0, 0])
        acc[0] += hits - h0
        acc[1] += misses - m0
        acc[2] += size
    return out


def execute(op, tracer):
    """Run op, catching its failure, with trace aggregates when traced."""
    result = {"id": op["id"]}
    if tracer is not None:
        from spans import cache_snapshot

        tracer.op = op["id"]
        tracer.reset_counts()
        before = cache_snapshot()
    start = now_ns()
    try:
        result.update(run_op(op))
    except Exception:  # the op failed: report it, the parent counts it
        result["error"] = traceback.format_exc(limit=4)
    result["op_ns"] = [start, now_ns()]
    result["maxrss_kb"] = maxrss_kb()
    if tracer is not None:
        after = cache_snapshot()
        result["trace"] = tracer.summary()
        result["caches"] = _cache_delta(before, after)
        result["cache_detail"] = after
    return result


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv):
    mode, rest = argv[1], argv[2:]
    if mode == "once":
        op_text, rest = rest[0], rest[1:]
    spans_path = rest[0] if rest else None
    try:
        import_package()
        if mode == "serve":
            from inputs import SCAN_WEIGHT

            warm_up(SCAN_WEIGHT)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    ready_ns = now_ns()
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "once":
        op = json.loads(op_text)
        result = execute(op, tracer) if op["kind"] != "noop" else {"id": op["id"]}
        result["ready_ns"] = ready_ns
        emit(result)
    else:
        emit({"ready_ns": ready_ns})
        for line in sys.stdin:
            emit(execute(json.loads(line), tracer))
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
