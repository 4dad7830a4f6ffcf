"""Command-line interface: golden outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

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


def test_checks_ask_r_only_as_far_as_needed(capsys):
    # x^n y^n has degree 2n, so degree D needs r(1)...r(D // 2); order n
    # needs r(1)...r(n), as (x r(-D)) drops x^n before weighting it
    five = ["table:1,1/2,3,2,1", "tparam:T1=2,T2=3,T3=5,T4=7,T5=11"]
    for r in five:
        for D in ("10", "11"):
            argv = ["pfaffian-check", "--r", r, "--n", "2", "--degree", D, "--json"]
            code, out, _ = run(capsys, argv)
            assert code == 0 and json.loads(out)["pass"] is True, argv
    # below the weight too: the order, not the weight, bounds r
    for r, W in [(five[0], "5"), (five[0], "8"), (five[1], "8")]:
        argv = ["linear-check", "--r", r, "--m", "1", "--order", "5", "--weight", W, "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["pass"] is True, argv
    for argv, n in [
        (["pfaffian-check", "--r", "table:1,1/2,3,2", "--n", "2", "--degree", "10"], 5),
        (["linear-check", "--r", "table:1,1/2,3,2", "--m", "1", "--order", "5", "--weight", "5"], 5),
        (["linear-check", "--r", "table:1,1/2,3,2", "--m", "1", "--order", "5", "--weight", "8"], 5),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "r(%d) outside" % n in err, argv


def test_linear_check(capsys):
    code, out, _ = run(
        capsys,
        ["linear-check", "--r", "ratps:a=1;b=2", "--m", "3", "--order", "6", "--weight", "6", "--json"],
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def _nested_prod(depth):
    spec = "ones"
    for _ in range(depth):
        spec = "prod:(%s),(ones)" % spec
    return spec


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
        # a nonpositive integer b is refused at every order, as ratps refuses it,
        # though (-1)_1 and (0)_0 are nonzero
        (["hyper", "--b", "-1", "--order", "1", "--weight", "3"], "-1"),
        (["hyper", "--b", "-1", "--order", "1"], "b parameter -1 hits zero denominator"),
        (["hyper", "--b", "0", "--order", "0"], "b parameter 0 hits zero denominator"),
        (["tau", "--r", "symrat:alpha=1/3;bta=1/5", "--weight", "4"], "'bta'"),
        (["tau", "--r", "ratps:a=1;c=2", "--weight", "4"], "'c'"),
        (["tau", "--r", "tparam:T1=2,T1=3", "--weight", "4"], "T1"),
        (["tau", "--r", "cutoff:M=3;M=4", "--weight", "4"], "field M"),
        (["tau", "--r", "ones:garbage", "--weight", "4"], "'garbage'"),
        (["pfaffian-check", "--r", "cutoff:M=-3", "--n", "2", "--degree", "4", "--json"], "M=-3"),
        (
            ["linear-check", "--r", "cutoff:M=0", "--m", "1", "--order", "4", "--weight", "4", "--json"],
            "M=0",
        ),
        # h_5(t*) is truncated away at weight 4, so this read as a failed identity
        (["linear-check", "--r", "ones", "--m", "1", "--order", "6", "--weight", "4", "--json"], "order 6"),
        # both sides vanish below x^m, so these passed vacuously
        (["linear-check", "--r", "ones", "--m", "5", "--order", "4", "--weight", "4", "--json"], "m=5"),
        (["pfaffian-check", "--r", "ones", "--n", "3", "--degree", "4", "--json"], "N(N-1)+2 = 8"),
        # up to N(N-1)+1 both sides are the r-free leading term, so these
        # passed vacuously
        (["pfaffian-check", "--r", "ones", "--n", "1", "--degree", "1", "--json"], "N(N-1)+2 = 2"),
        (
            ["pfaffian-check", "--r", "ratps:a=1/2,3;b=5/2", "--n", "3", "--degree", "6", "--json"],
            "N(N-1)+2 = 8",
        ),
        (["pfaffian-check", "--r", "ones", "--n", "3", "--degree", "7", "--json"], "N(N-1)+2 = 8"),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and text in err and "Traceback" not in err, argv
    # running out of recursion depth is a refused input, not a failed identity
    for argv in [
        ["qfun", "--lambda", "400", "--weight", "400"],
        ["schur", "--mu", "400", "--weight", "400"],
        ["tau", "--r", _nested_prod(1200), "--weight", "2"],  # deep in parse_rspec
        ["tau", "--r", _nested_prod(600), "--weight", "2"],  # deep in Product.r_value
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "Traceback" not in err, argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]


GOLDEN_SHA256 = [
    (
        "verify --suite all --weight 8 --seed 0 --json",
        "4916f20c2f72f995cdcf7303375241f5774897dc14a22f058939c6f7e4545498",
    ),
    (
        "verify --suite all --weight 10 --seed 3 --json",
        "b90e07828112dd5e50d2463ad9e463097c8e1848048f855760e06ab28d1dc54b",
    ),
    (
        # every identity at weight 12
        "verify --suite all --weight 12 --json",
        "1084a8f49a2a979533060e086a52c5b072289ddf0bd170ee5d4784dc50a9ed4a",
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
        # N(N-1) + 2 = 8 is the lowest degree at which r enters
        "pfaffian-check --r ratps:a=1/2,3;b=5/2 --n 3 --degree 8 --json",
        "05dcf95fe8ff86e8856dcc38d7afb5191fa2faba0899d2ce5f2a7ad75e0a44dc",
    ),
    (
        # the two-alphabet Pfaffian at N=4, in 8 packed MultiPoly variables,
        # at the lowest degree at which r enters, N(N-1) + 2 = 14
        "pfaffian-check --r cutoff:M=3 --n 4 --degree 14 --json",
        "0f4bd0a3b7e22ffaa8e499947efbf9b2ada99ce57e17694488e185b5c345bc3f",
    ),
    (
        # a PASS above N(N-1) + 2 at N=4 for a spec with a beta parameter,
        # whose left side is pfaffian's expansion with owed denominators
        "pfaffian-check --r symrat:alpha=1/3;beta=1/5 --n 4 --degree 16 --json",
        "da0d1f8237808b8c5dc252fa45aa82e05a64904b07e4499877d0601b78cccd38",
    ),
    (
        "hyper --a 1/2 --b 3/2 --order 6 --weight 6 --json",
        "0a0dd51fec53022fd10736d74784bb92af7eae13d2c45339517d72b5413f7623",
    ),
    (
        # tau at t* = t_infinity with two a's, to weight 14
        "hyper --a 1/3,2 --b 5/2 --order 8 --weight 14 --json",
        "97bdba0d8f7e52965cada18fd0eaaaa52a60474cf20e22568895b8c411496741",
    ),
    (
        # a = -2 ends the series: only lambda with parts <= 2 carry r_lambda
        "hyper --a -2 --b 7/3 --order 5 --weight 12 --json",
        "6d6e660aa952d537ba93ec9049a7f517b8a66131b5a74c484da43cabce2853cc",
    ),
    (
        # an s_mu of length 5, built by the strip recurrence on mu itself
        "schur --mu 4,1,1,1,1 --weight 10 --json",
        "de44ce2ccdd588d6439f9d43b99bd3476686d71d8b7510f89a6596cdf2e34963",
    ),
    (
        "verify --suite square --weight 12 --seed 0 --json",
        "606ffe9b812e9150aa196bb2f2a1f47c1881cc95bf796c57866722d8bb57f04b",
    ),
    (
        # unequal caps and large common denominators in the integer tau sum
        "tau --r ratps:a=3/4,5/2;b=2/3 --weight 10 --wstar 6 --json",
        "ec47589a3fbabd6fdf5fc24f08bb925d581a54c432a30801793c7d9c9e56e532",
    ),
    (
        # the same spec with the caps the other way round: the t* half of a
        # key is the wider one
        "tau --r ratps:a=3/4,5/2;b=2/3 --weight 6 --wstar 10 --json",
        "b4394f2c624400b1b66100d1335c9d1d0a5f062ef02c6f7d7e1d841ca8134da7",
    ),
    (
        # the zero r(3) ends every prefix before r(5) is asked of the table
        "tau --r table:1,1/2,0,3 --weight 7 --json",
        "9d4ccbd39826c376e5f7e94f0d3eb7b058a891cc9f1dd61e95600b8d72105eec",
    ),
    (
        # a Q_lambda of length 4
        "qfun --lambda 6,4,3,1 --weight 14 --json",
        "fb84f5476b18f53b7a9b4036ee270e6df32b780b53778496a8a018668b6ee873",
    ),
    (
        # a Product spec at unequal caps
        "tau --r prod:(symrat:alpha=1/3;beta=1/5),(ratps:a=3/4;b=5/2) --weight 9 --wstar 7 --json",
        "7688d2d9275fae02e6a2c8a47e51b9a56e3a8027db4cf96c192761b0a19e8cfe",
    ),
    (
        # the swap and the integer scaling of a W=14 tau per shipped spec
        "verify --suite symmetry --weight 14 --seed 0 --json",
        "e758dce4d47c63ec497eb2d2c3e4fa3186fcb384777f30316e663cf28db3f716",
    ),
    (
        # an s_mu at weight 14
        "schur --mu 5,3,2,1 --weight 14 --json",
        "98140ec5313309d2fec80f1c2fd2a6b41c7c4c206361d2bd34c5e423b67226fb",
    ),
    (
        # s_mu = s_mu' at odd times: a shape and its conjugate, each built
        # by its own strip recurrence, give one digest
        "schur --mu 5,3,1,1,1,1 --weight 14 --json",
        "747ee85dbbbdde3a5d95a24e2921ce281071d70d0f836c20a68d46adae42e183",
    ),
    (
        "schur --mu 6,2,2,1,1 --weight 14 --json",
        "747ee85dbbbdde3a5d95a24e2921ce281071d70d0f836c20a68d46adae42e183",
    ),
    (
        # mu and mu' = (5, 3, 2, 2) both have repeated parts
        "schur --mu 4,4,2,1,1 --weight 12 --json",
        "7e8caec07475b1ddadaac889bc019e08379a41f48239561a2212e60c4e5bf218",
    ),
    (
        # tau_bkp at W=14, whose top weight block is 22 x 22 (253 cells i <= j)
        "tau --r symrat:alpha=1/3;beta=1/5 --weight 14 --json",
        "7890026322a0dcdd4b9b9e0effb0c93b346bcee2414a853df05655173f065d9f",
    ),
    (
        # r_lambda = 0 for every part >= 4, so some blocks miss a lambda, at
        # unequal caps: the triangle and its mirror in halves of two widths
        "tau --r cutoff:M=4 --weight 13 --wstar 11 --json",
        "691fc539680b6b166ec203b9975bc198728847087ffec37e7383970cb355ad02",
    ),
    (
        # (x r(-D))^5 at order and weight 14, as spec-scan runs it
        "linear-check --r symrat:alpha=1/3;beta=1/5 --m 5 --order 14 --weight 14 --json",
        "87f281ebbea5735386171374ca99699b108ea5e77a6b440b242cf0a2f330d6df",
    ),
    (
        # r(n) = 0 from n = 4, so the one-row terms of tau stop at n = 3
        "linear-check --r cutoff:M=4 --m 3 --order 10 --weight 10 --json",
        "f29faaab5c9ed48399bedf3a112006570a6ab57bc9af879e4f4a3a7aba217649",
    ),
    (
        # the order below the weight
        "linear-check --r symrat:alpha=1/3;beta=1/5 --m 3 --order 8 --weight 12 --json",
        "271e30dd698bf1417eb84728486e4e20500856cae04a96589e228ebd17098ed1",
    ),
    (
        # a 3-value table at order 2 and weight 8: the one-point series stops
        # at min(order, weight), so r is never asked past r(3)
        "linear-check --r table:1,2,3 --m 1 --order 2 --weight 8 --json",
        "7b523ded401acb0cbc30819ad3ca372845556bce76bbfb53c8c615b0d69e211b",
    ),
]


def test_outputs_byte_identical(capsys):
    # digests of the stdout of the initial implementation; the same under
    # any PYTHONHASHSEED
    for command, digest in GOLDEN_SHA256:
        code, out, _ = run(capsys, command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def check_golden_in_fresh_interpreters():
    """Run each GOLDEN_SHA256 row as `python -m bkpq.cli` in a new
    interpreter under PYTHONHASHSEED 0 and 1, print each digest and exit 1
    at the first exit code or digest that differs."""
    for command, digest in GOLDEN_SHA256:
        for hashseed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "bkpq.cli", *command.split()],
                env=dict(os.environ, PYTHONHASHSEED=hashseed),
                stdout=subprocess.PIPE,
            )
            got = hashlib.sha256(proc.stdout).hexdigest()
            print("PYTHONHASHSEED=%s %s: %s" % (hashseed, command, got), flush=True)
            if proc.returncode or got != digest:
                sys.exit(
                    "FAIL under PYTHONHASHSEED=%s: %s exited %d with digest %s, want %s"
                    % (hashseed, command, proc.returncode, got, digest)
                )


def test_indented_output(capsys):
    # without --json, main prints the same payload indented by two spaces
    code, out, _ = run(capsys, ["tableaux", "--lambda", "3,1"])
    assert code == 0
    assert out == '{\n  "count": 2,\n  "hook_star": "12"\n}\n'
    code, out, _ = run(capsys, ["verify", "--suite", "cauchy", "--weight", "4"])
    assert code == 0
    digest = "8acffd92fa1178e2064ef075f7f863f23d2df1d4e99c1168019e191651f671ec"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the smallest valid argv of each command, and the rest of its Namespace
SMALLEST_ARGV = [
    (["qfun", "--lambda", "2,1", "--weight", "0"], {"lam": "2,1", "weight": 0}),
    (["schur", "--mu", "3,1", "--weight", "0"], {"mu": "3,1", "weight": 0}),
    (["tau", "--r", "ones", "--weight", "0"], {"r": "ones", "weight": 0, "wstar": None}),
    (["hyper", "--order", "0"], {"a": "", "b": "", "order": 0, "weight": 0}),
    (["tableaux", "--lambda", "3,1"], {"lam": "3,1"}),
    (["verify"], {"suite": "all", "weight": 8, "seed": 0}),
    (["pfaffian-check", "--r", "ones"], {"r": "ones", "n": 2, "degree": 10}),
    (["linear-check", "--r", "ones"], {"r": "ones", "m": 3, "order": 8, "weight": 8}),
]

HELP = [
    ("qfun", "projective Schur function Q_lambda(t/2)"),
    ("schur", "Schur function s_mu at odd times"),
    ("tau", "BKP hypergeometric tau-function series"),
    ("hyper", "generalized hypergeometric coefficients"),
    ("tableaux", "shifted standard tableaux count"),
    ("verify", "run an identity suite"),
    ("pfaffian-check", "two-alphabet Pfaffian identity"),
    ("linear-check", "one-point linear constraint"),
]


def test_parser_namespaces():
    runs = {command.name: command.run for command in cli.COMMANDS}
    assert list(runs) == [argv[0] for argv, _ in SMALLEST_ARGV]
    for argv, rest in SMALLEST_ARGV:
        want = dict(rest, command=argv[0], json=False, run=runs[argv[0]])
        assert vars(cli.build_parser().parse_args(argv)) == want, argv
        want["json"] = True
        assert vars(cli.build_parser().parse_args(argv + ["--json"])) == want, argv


def test_help_lists_the_commands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: bkpq [-h]")
    assert "Projective Schur Q-functions and BKP tau-function checks" in out
    assert "{%s}" % ",".join(name for name, _ in HELP) in out
    lines = [line.split(None, 1) for line in out.splitlines()]
    assert [line for line in lines if line and line[0] in dict(HELP)] == [list(h) for h in HELP]
    for name, _ in HELP:
        code, out, _ = run(capsys, [name, "--help"])
        assert code == 0 and out.startswith("usage: bkpq %s [-h]" % name)
        assert "--json" in out and "compact JSON output" in out


def test_failed_identity_exits_1(capsys, monkeypatch):
    fake = TauReport("cauchy", {"weight": 5}, False, ("t_1 t*_1", "1/2", "1/3"))
    monkeypatch.setattr(cli.tau, "check_cauchy", lambda W, vacuum: fake)
    code, out, _ = run(capsys, ["verify", "--suite", "cauchy", "--weight", "5", "--json"])
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["pass"] is False
    assert "witness" in reports[0]


def test_verify_builds_the_vacuum_tau_once(monkeypatch):
    # the Cauchy check reads tau_bkp off the Ones that the other checks share
    built = []
    real = cli.tau.tau_terms

    def tau_terms(spec, W, max_length=None):
        built.append((repr(spec), W, max_length))
        return real(spec, W, max_length)

    monkeypatch.setattr(cli.tau, "tau_terms", tau_terms)
    assert all(r.passed for r in cli.run_verify_suite("all", 6, 0))
    assert built.count(("Ones()", 6, None)) == 1


def test_verify_checks_share_each_shipped_spec(monkeypatch):
    # check_square and check_symmetry_scaling get the same spec objects, so
    # the second finds the tau_bkp the first built
    seen = {"check_square": [], "check_symmetry_scaling": []}
    for name, ids in seen.items():
        real = getattr(cli.tau, name)

        def record(spec, *args, real=real, ids=ids):
            ids.append(id(spec))
            return real(spec, *args)

        monkeypatch.setattr(cli.tau, name, record)
    reports = cli.run_verify_suite("all", 4, 0)
    assert all(r.passed for r in reports)
    assert len(seen["check_square"]) == 4
    assert seen["check_square"] == seen["check_symmetry_scaling"]


def test_verify_schedules_two_alphabet_pfaffians_only_where_r_enters():
    # below degree N(N-1)+2 both sides are the r-free leading term; the
    # linear check runs at each m = 1, 3, 5 up to the weight
    for W, want in [(1, []), (2, [1]), (3, [1]), (4, [1, 2]), (5, [1, 2])]:
        reports = [r.to_json() for r in cli.run_verify_suite("all", W, 0)]
        ns = [r["params"]["N"] for r in reports if r["name"] == "pfaffian-two-alphabet"]
        assert ns == want * 4, W
        ms = [r["params"]["m"] for r in reports if r["name"] == "linear-eq-N1"]
        assert ms == [m for m in (1, 3, 5) if m <= W] * 4, W
        assert all(r["pass"] for r in reports), W


if __name__ == "__main__":
    check_golden_in_fresh_interpreters()
