"""Command-line interface: golden outputs, exit codes, determinism."""

import hashlib
import json

from bkpq import cli
from bkpq.tau import TauReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qfun_golden(capsys):
    code, out, _ = run(capsys, ["qfun", "--lambda", "2,1", "--weight", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "truncation_weight": 6,
        "terms": [
            {"coeff": "1/6", "exps": {"1": 3}},
            {"coeff": "-2", "exps": {"3": 1}},
        ],
    }


def test_schur_golden(capsys):
    code, out, _ = run(capsys, ["schur", "--mu", "2,1", "--weight", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    coeffs = {json.dumps(t["exps"], sort_keys=True): t["coeff"] for t in payload["terms"]}
    assert coeffs == {'{"1": 3}': "1/3", '{"3": 1}': "-1"}


def test_tableaux_golden(capsys):
    code, out, _ = run(capsys, ["tableaux", "--lambda", "3,1", "--json"])
    assert code == 0
    assert json.loads(out) == {"count": 2, "hook_star": "12"}


def test_tau_coefficients_are_exact_strings(capsys):
    code, out, _ = run(capsys, ["tau", "--r", "cutoff:M=2", "--weight", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    for term in payload["terms"]:
        num_den = term["coeff"].split("/")
        assert all(part.lstrip("-").isdigit() for part in num_den)


def test_hyper_golden(capsys):
    code, out, _ = run(capsys, ["hyper", "--a", "1", "--b", "2", "--order", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1/2", "1/6", "1/24", "1/120"]


def test_verify_suites_pass(capsys):
    for suite in ("cauchy", "square", "symmetry"):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--weight", "5", "--json"])
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["pass"] for r in reports)


def test_verify_all_deterministic(capsys):
    argv = ["verify", "--suite", "all", "--weight", "4", "--seed", "3", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pfaffian_check(capsys):
    code, out, _ = run(
        capsys, ["pfaffian-check", "--r", "ones", "--n", "1", "--degree", "6", "--json"]
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_linear_check(capsys):
    code, out, _ = run(
        capsys,
        ["linear-check", "--r", "ratps:a=1;b=2", "--m", "3", "--order", "6", "--weight", "6", "--json"],
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_usage_errors_exit_2(capsys):
    assert run(capsys, ["qfun", "--lambda", "x,y", "--weight", "4"])[0] == 2
    assert run(capsys, ["tau", "--r", "nope", "--weight", "4"])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["hyper", "--b", "0", "--order", "3"])[0] == 2
    assert run(capsys, ["qfun", "--lambda", "1,2", "--weight", "4"])[0] == 2
    code, _, err = run(capsys, ["tau", "--r", "cutoff:", "--weight", "4"])
    assert code == 2 and "field M" in err
    for argv, flag in [
        (["verify", "--weight", "0"], "--weight"),
        (["verify", "--weight", "-1"], "--weight"),
        (["pfaffian-check", "--r", "ones", "--n", "0"], "--n"),
        (["pfaffian-check", "--r", "ones", "--degree", "0"], "--degree"),
        (["linear-check", "--r", "ones", "--order", "0"], "--order"),
        (["linear-check", "--r", "ones", "--weight", "0"], "--weight"),
        (["linear-check", "--r", "ones", "--m", "-1"], "--m"),
        (["tau", "--r", "ones", "--weight", "-2"], "--weight"),
        (["tau", "--r", "ones", "--weight", "2", "--wstar", "-1"], "--wstar"),
        (["qfun", "--lambda", "1", "--weight", "-1"], "--weight"),
        (["schur", "--mu", "1", "--weight", "-1"], "--weight"),
        (["hyper", "--a", "1", "--order", "-1"], "--order"),
        (["hyper", "--a", "1", "--order", "2", "--weight", "-1"], "--weight"),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "argument %s:" % flag in err, argv
    for argv, text in [
        (["tau", "--r", "table:1/0", "--weight", "4"], "'1/0'"),
        (["tau", "--r", "tparam:T1=2/0", "--weight", "4"], "'2/0'"),
        (["hyper", "--a", "1/0", "--order", "2"], "'1/0'"),
        (["hyper", "--b", "x", "--order", "2"], "'x'"),
        # (-1)_1 is nonzero, but (-1)_2 is zero in the t_infinity series
        (["hyper", "--b", "-1", "--order", "1", "--weight", "3"], "-1"),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and text in err and "Traceback" not in err, argv


GOLDEN_SHA256 = [
    (
        "verify --suite all --weight 8 --seed 0 --json",
        "4916f20c2f72f995cdcf7303375241f5774897dc14a22f058939c6f7e4545498",
    ),
    (
        "tau --r symrat:alpha=1/3 --weight 8 --json",
        "0e99944b690d2ecebb33bb28f3bfa585b77b461594ec3bd0edea8a4f1b6634c9",
    ),
    (
        "qfun --lambda 4,2,1 --weight 10 --json",
        "f4ce9b1a0da16eca4f2da50d3189c78607cbbc5634a5bdf0acf109c4855f1db7",
    ),
    (
        "schur --mu 3,2,1 --weight 8 --json",
        "d093b7acff114092b2db02a3b1ed96a73b97085cf4fdb696e46a8acb59fe7def",
    ),
    (
        "pfaffian-check --r ratps:a=1/2,3;b=5/2 --n 3 --degree 6 --json",
        "6a2014f26900b36e18936caf2960d1996c240d09fce21383f3b8755917c2f37b",
    ),
    (
        "hyper --a 1/2 --b 3/2 --order 6 --weight 6 --json",
        "0a0dd51fec53022fd10736d74784bb92af7eae13d2c45339517d72b5413f7623",
    ),
]


def test_outputs_byte_identical(capsys):
    # digests of the stdout of the initial implementation; the same under
    # any PYTHONHASHSEED
    for command, digest in GOLDEN_SHA256:
        code, out, _ = run(capsys, command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_failed_identity_exits_1(capsys, monkeypatch):
    fake = TauReport("cauchy", {"weight": 5}, False, ("t_1 t*_1", "1/2", "1/3"))
    monkeypatch.setattr(cli.tau, "check_cauchy", lambda W: fake)
    code, out, _ = run(capsys, ["verify", "--suite", "cauchy", "--weight", "5", "--json"])
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["pass"] is False
    assert "witness" in reports[0]
