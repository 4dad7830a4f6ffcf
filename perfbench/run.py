"""The bkpq benchmark runner.

    python3 perfbench/run.py --workload cli-verify --seed 1 --seconds 40 --trace 0

Runs one workload for up to --seconds, in whole cycles of its input families,
one op after another (a closed loop with a single client).  It checks every
op's identity verdicts and prints every metric by name with its unit.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end
metrics; --trace 1 runs each op untraced and then traced, and gives the
per-layer metrics.  Details of each run, and the spans of a traced run, go
under perfbench/out/.  See perfbench/README.md.
"""

import argparse
import collections
import itertools
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from inputs import (  # noqa: E402
    CYCLE,
    PFAFFIAN_REPORTS,
    VERIFY_REPORTS,
    first_cycle,
    op_stream,
    scan_reports,
)
from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402
from spans import FIELDS  # noqa: E402
from worker import SETUP_FAILED, now_ns  # noqa: E402

WORKLOADS = ("cli-verify", "pfaffian-scale", "spec-scan")
COLD = {"cli-verify", "pfaffian-scale"}  # a fresh interpreter per op
OP_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metric catalog.  Counts and times are per traced op.
CALLS_AND_SELF = [
    "qschur.schur_s", "qschur.h_k", "qschur.q_lambda", "qschur.q_expand",
    "qschur.scalar_product", "qschur.eval_at_x",
    "gseries.OddSeries.mul", "gseries.OddSeries.add", "gseries.OddSeries.exp",
    "gseries.BiSeries.mul", "gseries.BiSeries.exp",
    "tau.tau_bkp", "tau.tau_kp",
    "rspec.r_lambda", "rspec.content_product_kp",
    "pfaffian.MultiPoly.mul", "pfaffian.pfaffian", "pfaffian.tau_at_xpoint",
    "pfaffian.build_R", "pfaffian.build_S", "pfaffian.tau_as_multipoly",
]
SELF_ONLY = [
    "tau.check_square", "tau.check_cauchy", "tau.check_symmetry_scaling",
    "tau.check_tau_scalar", "ops.tau_x_series", "ops.apply_x_r_negD",
    "ops.check_linear_eq_N1", "cli.main",
]
PAIRS_AND_TERMS = [
    "gseries.OddSeries.mul", "gseries.BiSeries.mul", "gseries.BiSeries.exp",
    "pfaffian.MultiPoly.mul",
]
TERMS_ONLY = ["tau.tau_bkp", "tau.tau_kp"]
ITEMS = ["pfaffian.perfect_matchings", "partitions.enumerate_strict",
         "partitions.enumerate_partitions"]
# inclusive span time over op time: the isolation each workload was chosen for
OP_SHARE = ["qschur.schur_s", "pfaffian.MultiPoly.mul", "tau.tau_bkp"]
CACHE_MODULES = ["qschur"]


def per_layer_catalog():
    """[(metric name, unit)] in report order."""
    out = []
    for name in CALLS_AND_SELF:
        out += [(name + ".calls", "calls/op"), (name + ".self_s", "s/op")]
    out += [(name + ".self_s", "s/op") for name in SELF_ONLY]
    for name in PAIRS_AND_TERMS:
        out += [(name + ".pairs", "pairs/op"), (name + ".terms_out", "terms/op")]
    out += [(name + ".terms_out", "terms/op") for name in TERMS_ONLY]
    out.append(("gseries.OddSeries.mul.yield", "terms/pair"))
    out += [(name + ".items", "items/op") for name in ITEMS]
    out.append(("rspec.r_lambda.zero_ratio", "ratio"))
    out += [(name + ".op_share", "ratio") for name in OP_SHARE]
    for mod in CACHE_MODULES:
        out += [(mod + ".cache.hits", "count/op"), (mod + ".cache.misses", "count/op"),
                (mod + ".cache.currsize", "entries"), (mod + ".cache.hit_ratio", "ratio")]
    out.append(("trace_overhead_ratio", "ratio"))
    return out


class SetupError(RuntimeError):
    """bkpq could not be started at all: no result is printed."""


def seconds(ns):
    return ns / 1e9


# -- running ops ---------------------------------------------------------------


def worker_cmd(*args):
    return [sys.executable, "-s", WORKER] + [str(a) for a in args]


def worker_env(hash_seed):
    """A fixed hash seed per op: set iteration order, and so the work done,
    repeats exactly for one benchmark seed (pfaffian multiplies its clearing
    factors in set order)."""
    return dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))


def run_cold(op, spans_path=None):
    """One op in a fresh interpreter.  Returns a record; failures are kept."""
    cmd = worker_cmd("once", json.dumps(op), *([spans_path] if spans_path else []))
    t0 = now_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, env=worker_env(op["hash_seed"]))
    except subprocess.TimeoutExpired:
        return {"op": op, "latency_s": seconds(now_ns() - t0),
                "error": "timed out after %d s" % OP_TIMEOUT_S}
    t1 = now_ns()
    if proc.returncode == SETUP_FAILED:
        raise SetupError("bkpq failed to import:\n" + proc.stderr)
    rec = {"op": op, "latency_s": seconds(t1 - t0)}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        rec["error"] = "worker exited %d: %s" % (proc.returncode, proc.stderr[-2000:])
        return rec
    result = json.loads(lines[-1])
    rec["result"] = result
    rec["setup_s"] = seconds(result["ready_ns"] - t0)
    if "op_ns" in result:
        rec["done_s"] = seconds(result["op_ns"][1] - t0)
        rec["maxrss_kb"] = result["maxrss_kb"]
    return rec


class Server:
    """A long-lived worker that runs ops sent over its stdin."""

    def __init__(self, hash_seed, spans_path=None):
        t0 = now_ns()
        self.proc = subprocess.Popen(
            worker_cmd("serve", *([spans_path] if spans_path else [])),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_env(hash_seed),
        )
        self.buf = b""
        line = self._read_line(SETUP_TIMEOUT_S)
        if line is None:
            code = self.close()
            raise SetupError("spec-scan worker did not start (exit %s)" % code)
        self.setup_s = seconds(json.loads(line)["ready_ns"] - t0)

    def _read_line(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def run(self, op):
        t0 = now_ns()
        try:
            self.proc.stdin.write((json.dumps(op) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"op": op, "latency_s": 0.0, "error": "worker has exited"}
        line = self._read_line(OP_TIMEOUT_S)
        rec = {"op": op, "latency_s": seconds(now_ns() - t0)}
        if line is None:
            self.proc.kill()
            rec["error"] = "no result within %d s" % OP_TIMEOUT_S
            return rec
        rec["result"] = json.loads(line)
        rec["done_s"] = rec["latency_s"]
        rec["maxrss_kb"] = rec["result"]["maxrss_kb"]
        return rec

    def close(self):
        """Close stdin, let the worker write its spans, and wait for it."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            return self.proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def compile_probe():
    """Import bkpq once untimed, so bytecode is compiled before any timing."""
    rec = run_cold({"id": -1, "kind": "noop", "hash_seed": 0})
    if "error" in rec:
        raise SetupError(rec["error"])


# -- checking ------------------------------------------------------------------


def verdict(rec):
    """None when the op's outputs are correct, else the reason it failed."""
    if "error" in rec:
        return rec["error"].strip().splitlines()[-1]
    op, res = rec["op"], rec["result"]
    if "error" in res:
        return res["error"].strip().splitlines()[-1]
    if op["kind"] == "cli":
        if res["rc"] != 0:
            return "exit code %d" % res["rc"]
        try:
            reports = json.loads(res["stdout"])
        except ValueError:
            return "stdout is not JSON"
        names = collections.Counter(r["name"] for r in reports)
        if names != collections.Counter(VERIFY_REPORTS):
            return "unexpected report set %s" % dict(names)
    else:
        reports = res["reports"]
        expected = PFAFFIAN_REPORTS if op["kind"] == "pfaffian" else scan_reports(op)
        if [r["name"] for r in reports] != expected:
            return "unexpected reports %s" % [r["name"] for r in reports]
    failed = [r["name"] for r in reports if r["pass"] is not True]
    if failed:
        return "FAIL verdict: %s" % ", ".join(failed)
    return None


def output_of(rec):
    """What must not change between runs of one input: CLI stdout or reports."""
    res = rec.get("result", {})
    return res.get("stdout", res.get("reports"))


def mark_failures(records):
    """Set rec['failed'] on every record; a repeated CLI seed must match byte for byte."""
    first_output = {}
    for rec in records:
        reason = verdict(rec)
        if reason is None and rec["op"]["kind"] == "cli":
            key = tuple(rec["op"]["argv"])
            first_output.setdefault(key, rec["result"]["stdout"])
            if rec["result"]["stdout"] != first_output[key]:
                reason = "stdout differs from an earlier op with the same --seed"
        rec["failed"] = reason


def tally(records):
    """(ops attempted, [(op id, reason)] of every op that failed)."""
    return len(records), [(r["op"]["id"], r["failed"]) for r in records if r["failed"]]


# -- statistics ----------------------------------------------------------------


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


# -- the two kinds of run --------------------------------------------------------


def run_cycles(run_s, cycle_len, run_one, after_cycle=None):
    """Call run_one() in whole cycles of cycle_len ops, and after_cycle()
    after each: at least one cycle, then more while the next one should end
    within run_s.  Every run then sees each input family equally often.
    Returns the (start, end) in ns."""
    start = now_ns()
    while True:
        cycle_start = now_ns()
        for _ in range(cycle_len):
            run_one()
        if after_cycle is not None:
            after_cycle()
        now = now_ns()
        if seconds((now - start) + (now - cycle_start)) > run_s:
            return start, now


def timed_run(workload, seed, run_s):
    stream = op_stream(workload, seed)
    compile_probe()
    speed = HostSpeed()
    records = []
    setups = []  # (raw seconds, scale) of every set-up

    def op(run_one):
        rec = run_one(next(stream))
        rec["scale"] = speed.sample()
        records.append(rec)

    if workload in COLD:
        run_cycles(run_s, CYCLE[workload], lambda: op(run_cold))
        setups = [(r["setup_s"], r["scale"]) for r in records if "setup_s" in r]
    else:
        # setup_s is sampled across the run, like op latency: the serving
        # process's start-up, then after every cycle the start-up of a
        # fresh process that is closed at once
        def probe_setup():
            probe = Server(seed)
            probe.close()
            setups.append((probe.setup_s, speed.sample()))

        server = Server(seed)
        setups.append((server.setup_s, speed.sample()))
        try:
            run_cycles(run_s, CYCLE[workload], lambda: op(server.run), probe_setup)
        finally:
            server.close()
    mark_failures(records)
    ok = sum(1 for r in records if not r["failed"])

    def figures(latencies, setup_s):
        return {
            "ops_per_s": ok / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies)[0],
            "setup_s": statistics.median(setup_s),
        }

    latencies = [r["latency_s"] for r in records]
    raw = figures(latencies, [s for s, _ in setups])
    metrics = figures([r["latency_s"] * r["scale"] for r in records],
                      [s * scale for s, scale in setups])
    # the peak of any one process: cold ops each have their own
    metrics["peak_rss_mb"] = max((r["maxrss_kb"] for r in records if "maxrss_kb" in r),
                                 default=0) / 1024
    _, tail_pct, beyond = tail(latencies)
    notes = {name: "raw %.4g" % value for name, value in raw.items()}
    notes["op_tail_s"] += "; p%.1f of %d ops, %d beyond" % (tail_pct, len(latencies), beyond)
    if len(latencies) < 2 * TAIL_BEYOND + 1:
        notes["op_tail_s"] += "; WARNING: too few ops for a tail above the median"
    notes["setup_s"] += "; median of %d set-ups" % len(setups)
    detail = {"raw_latencies_s": latencies, "raw_setups_s": [s for s, _ in setups],
              "scales": [r["scale"] for r in records], "setup_scales": [f for _, f in setups],
              "reference_s": speed.samples, "tail_percentile": tail_pct}
    return records, metrics, dict(END_TO_END), notes, detail


def trace_run(workload, seed, run_s):
    """Each op of the first cycle untraced then traced, in whole cycles, so
    per-op counts do not depend on how many cycles ran."""
    cycle = itertools.cycle(first_cycle(workload, seed))
    spans_dir = os.path.join(OUT, "trace", "%s-seed%d" % (workload, seed))
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    compile_probe()
    speed = HostSpeed()
    pairs = []
    plain = traced = None

    def sampled(rec):
        rec["scale"] = speed.sample()
        return rec

    try:
        if workload not in COLD:
            plain = Server(seed)
            traced = Server(seed, os.path.join(spans_dir, "spans.gz"))

        def run_pair():
            op = dict(next(cycle), id=len(pairs))
            if plain is None:
                spans = os.path.join(spans_dir, "op%04d.spans.gz" % op["id"])
                pairs.append((sampled(run_cold(op)), sampled(run_cold(op, spans))))
            else:
                pairs.append((sampled(plain.run(op)), sampled(traced.run(op))))

        run_cycles(run_s, CYCLE[workload], run_pair)
    finally:
        for server in (plain, traced):
            if server is not None:
                server.close()
    records = [r for pair in pairs for r in pair]
    mark_failures(records)
    for p, t in pairs:
        if not t["failed"] and output_of(p) != output_of(t):
            t["failed"] = "traced output differs from untraced output"
    metrics, detail = per_layer_metrics(pairs)
    return records, metrics, dict(per_layer_catalog()), {}, detail


def per_layer_metrics(pairs):
    """Per traced op: counts as measured, self times scaled like the end-to-end ones."""
    done = [(p, t) for p, t in pairs if "done_s" in p and "trace" in t.get("result", {})]
    n = len(done) or 1
    totals = collections.defaultdict(lambda: [0] * len(FIELDS))
    caches = collections.defaultdict(lambda: [0, 0, 0])
    scaled_self_ns = collections.Counter()
    for _, t in done:
        for name, vals in t["result"]["trace"].items():
            totals[name] = [a + b for a, b in zip(totals[name], vals)]
            scaled_self_ns[name] += vals[FIELDS.index("self_ns")] * t["scale"]
        for mod, vals in t["result"]["caches"].items():
            caches[mod] = [a + b for a, b in zip(caches[mod], vals)]
    traced_s = sum(t["done_s"] for _, t in done)
    untraced_s = sum(p["done_s"] for p, _ in done)

    def get(name, field):
        return totals[name][FIELDS.index(field)]

    def ratio(a, b):
        return a / b if b else 0.0

    def value(metric):
        if metric == "trace_overhead_ratio":
            return ratio(traced_s, untraced_s)
        base, _, kind = metric.rpartition(".")
        if base.endswith(".cache"):
            hits, misses, size = caches[base[:-len(".cache")]]
            return {"hits": hits / n, "misses": misses / n, "currsize": size / n,
                    "hit_ratio": ratio(hits, hits + misses)}[kind]
        if kind == "self_s":
            return seconds(scaled_self_ns[base]) / n
        if kind == "yield":
            return ratio(get(base, "terms_out"), get(base, "pairs"))
        if kind == "zero_ratio":
            return ratio(get(base, "zeros"), get(base, "calls"))
        if kind == "op_share":
            return ratio(seconds(get(base, "incl_ns")), traced_s)
        return get(base, kind) / n  # calls, pairs, terms_out, items

    detail = {"traced_ops": len(done), "totals": dict(totals),
              "caches_per_callable": done[-1][1]["result"]["cache_detail"] if done else {}}
    return {name: value(name) for name, _ in per_layer_catalog()}, detail


# -- main ------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = trace_run if args.trace else timed_run
    pin_to_one_cpu()
    try:
        records, metrics, units, notes, detail = run(args.workload, args.seed, args.seconds)
    except SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    attempted, failures = tally(records)

    print("workload %s, seed %d, trace %d: %d ops attempted, %d failed, fail_ratio %.4g"
          % (args.workload, args.seed, args.trace, attempted, len(failures),
             len(failures) / max(attempted, 1)))
    for op_id, reason in failures:
        print("  op %d failed: %s" % (op_id, reason))
    for name, value in metrics.items():
        unit = units[name]
        note = notes.get(name)
        print("  %-40s %14.6g %-10s%s" % (name, value, unit, "  (%s)" % note if note else ""))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"args": vars(args), "attempted": attempted, "failures": failures,
                   "metrics": metrics, "detail": detail}, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
