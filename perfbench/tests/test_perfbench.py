"""Tests of the benchmark itself: inputs, tracing, the correctness gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from bkpq import qschur, rspec, tau  # noqa: E402
from bkpq.tau import TauReport  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pairs", ".terms_out", ".items")

# Small versions of the three op kinds, so in-process tests stay fast.
SMALL_OPS = [
    {"id": 0, "hash_seed": 0, "kind": "cli",
     "argv": ["verify", "--suite", "all", "--weight", "5", "--seed", "4", "--json"]},
    {"id": 1, "hash_seed": 1, "kind": "pfaffian", "spec": "ratps:a=1/2,3;b=5/2", "N": 3, "D": 6,
     "x": ["1/2", "-3", "2/5", "7"], "W": 6},
    {"id": 2, "kind": "scan", "spec": "tparam:" + ",".join("T%d=%d/3" % (n, n + 1) for n in range(1, 9)),
     "W": 6, "m": [1, 3], "t": {"1": "1/2", "3": "-2"}, "tstar": {"1": "3", "5": "1/7"}},
]


def record(op, tracer=None):
    return {"op": op, "latency_s": 0.0, "result": worker.execute(op, tracer)}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_seeded(workload):
    def take(seed, n=12):
        stream = inputs.op_stream(workload, seed)
        return [next(stream) for _ in range(n)]

    assert take(3) == take(3)
    assert take(3) != take(4)
    assert inputs.first_cycle(workload, 3) == take(3, inputs.CYCLE[workload])


@pytest.mark.parametrize("workload", ["pfaffian-scale", "spec-scan"])
def test_inputs_are_valid_and_never_degenerate(workload):
    stream = inputs.op_stream(workload, 11)
    for _ in range(40):
        op = next(stream)
        spec = rspec.parse_rspec(op["spec"])
        W = op["W"]
        # every r the checks evaluate exists; r(-W) reflects to r(W+1)
        values = [spec.r_value(n) for n in range(-W, W + 2)]
        if not op["spec"].startswith("cutoff"):
            assert all(values), op["spec"]
        if workload == "pfaffian-scale":
            x = [Fraction(v) for v in op["x"]]
            assert len(x) == inputs.XPOINT_N and all(x)
            assert len({abs(v) for v in x}) == len(x)


def test_cli_verify_repeats_one_seed():
    stream = inputs.op_stream("cli-verify", 5)
    ops = [next(stream) for _ in range(4)]
    assert ops[0]["argv"] == ops[1]["argv"]
    assert ops[1]["argv"] != ops[2]["argv"]


# -- tracing -------------------------------------------------------------------


def traced(op):
    tracer = spans.Tracer()
    tracer.install()
    try:
        return record(op, tracer)
    finally:
        tracer.uninstall()


def test_wrappers_leave_verdicts_and_cli_output_unchanged():
    originals = {name: getattr(tau, name) for name in ("q_lambda", "schur_s", "tau_bkp")}
    for op in SMALL_OPS:
        plain, with_trace = record(op), traced(op)
        assert "error" not in plain["result"], plain["result"].get("error")
        assert run.output_of(plain) == run.output_of(with_trace)
        assert with_trace["result"]["trace"]
    for name, fn in originals.items():
        assert getattr(tau, name) is fn  # uninstall restored every name


def test_traced_counts_repeat_in_process():
    for op in SMALL_OPS:
        first, second = traced(op)["result"], traced(op)["result"]
        for name, vals in first["trace"].items():
            counts = [vals[k] for k in (0, 3, 4, 5, 6)]  # calls, pairs, terms, items, zeros
            assert counts == [second["trace"][name][k] for k in (0, 3, 4, 5, 6)], name


def test_tracer_rebinds_imported_names():
    tracer = spans.Tracer()
    tracer.install()
    try:
        from bkpq import cli, pfaffian

        assert tau.q_lambda is qschur.q_lambda is pfaffian.q_lambda is cli.q_lambda
        assert tau.q_lambda.__wrapped__ is not None
        assert pfaffian.tau_bkp is tau.tau_bkp
    finally:
        tracer.uninstall()
    assert not hasattr(tau.q_lambda, "__wrapped__")


def test_caches_are_found_without_naming_them():
    found = spans.find_caches()
    assert found and {owner for owner, _, _ in found} == {"qschur"}
    assert all(callable(c.cache_info) for _, _, c in found)


def test_cold_traced_counts_repeat_across_processes(tmp_path):
    """The two-alphabet check multiplies its clearing factors in set order, so
    its work repeats only under one hash seed: each op carries its own."""
    counts = []
    for k in range(2):
        rec = run.run_cold(SMALL_OPS[1], str(tmp_path / ("op%d.spans.gz" % k)))
        run.mark_failures([rec])
        assert rec["failed"] is None
        counts.append({name: [vals[i] for i in (0, 3, 4, 5, 6)]
                       for name, vals in rec["result"]["trace"].items()})
    assert counts[0] == counts[1]
    assert counts[0]["pfaffian.MultiPoly.mul"][1] > 0


def test_traced_run_counts_repeat_across_runs():
    """Two traced runs with one seed give identical per-op counts, even when
    they run a different number of cycles."""
    results = [last_json(bench("--workload", "spec-scan", "--seed", "7",
                               "--seconds", secs, "--trace", "1").stdout)
               for secs in ("0.1", "0.1", "3")]
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {name for name, _ in run.per_layer_catalog()}
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if k.endswith(COUNT_SUFFIXES)} for res in results]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["tau.tau_bkp.calls"] > 0 and counts[0]["qschur.schur_s.calls"] == 0


# -- the correctness gate -----------------------------------------------------------


def failing(name):
    return lambda *a, **k: TauReport(name, {}, False, ("t:{1: 1}", 1, 2))


def test_forced_fail_report_is_counted(monkeypatch):
    monkeypatch.setattr(tau, "check_symmetry_scaling", failing("symmetry-scaling"))
    rec = record(SMALL_OPS[2])
    run.mark_failures([rec])
    assert rec["failed"].startswith("FAIL verdict")

    monkeypatch.setattr(tau, "check_cauchy", failing("cauchy"))
    rec = record(SMALL_OPS[0])
    run.mark_failures([rec])
    assert rec["failed"] == "exit code 1"


def test_raising_op_is_counted():
    op = dict(SMALL_OPS[2], spec="table:1,2")  # r(3) is outside the table
    rec = record(op)
    run.mark_failures([rec])
    assert "RValueError" in rec["failed"]


def test_timeout_is_counted(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    rec = run.run_cold(SMALL_OPS[1])
    run.mark_failures([rec])
    assert rec["failed"].startswith("timed out")
    assert rec["latency_s"] >= 0.05  # the sample is kept


def test_changed_stdout_for_a_repeated_seed_is_counted():
    reports = [{"name": name, "pass": True}
               for name, k in inputs.VERIFY_REPORTS.items() for _ in range(k)]
    recs = [{"op": SMALL_OPS[0], "result": {"rc": 0, "stdout": json.dumps(reports, indent=i)}}
            for i in (None, 1)]
    run.mark_failures(recs)
    assert recs[0]["failed"] is None
    assert recs[1]["failed"].startswith("stdout differs")


def test_fail_ratio_counts_every_failure(monkeypatch):
    monkeypatch.setattr(tau, "check_symmetry_scaling", failing("symmetry-scaling"))
    recs = [record(SMALL_OPS[2]), record(dict(SMALL_OPS[2], spec="table:1")),
            record(dict(SMALL_OPS[1], id=5))]
    run.mark_failures(recs)
    attempted, failures = run.tally(recs)
    assert attempted == 3 and [op_id for op_id, _ in failures] == [2, 2]


# -- statistics and the contract -----------------------------------------------------


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(1, 41)))
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_timed_run_reports_every_end_to_end_metric():
    """spec-scan samples set-up once more after every cycle of ops."""
    res = last_json(bench("--workload", "spec-scan", "--seed", "7", "--seconds", "2",
                          "--trace", "0").stdout)
    assert res["correct"] and res["failed"] == 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    with open(os.path.join(run.OUT, "spec-scan-seed7-trace0.json")) as f:
        detail = json.load(f)["detail"]
    cycles = len(detail["raw_latencies_s"]) // inputs.CYCLE["spec-scan"]
    assert len(detail["raw_setups_s"]) == cycles + 1 >= 2


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == ["cli-verify", "spec-scan"]
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_catalog()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "cli-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
