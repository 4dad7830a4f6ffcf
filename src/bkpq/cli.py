"""Command-line entry point.

Each command is one row of COMMANDS: its name, its help, its arguments and
a run(args) that returns a JSON payload, one TauReport or a list of them.
`main` is the one place that parses, runs, prints and picks the exit code.

Exit codes: 0 success / all identities pass, 1 identity failure (witness in
the JSON output), 2 usage error or refused input: a ValueError, or running
out of recursion depth (a spec nested too deep, a part too large).  All
numbers are emitted as exact "p/q" strings; with a fixed --seed the output
is byte-identical between runs.
"""

import argparse
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction

from . import ops, pfaffian, rspec, tau
from .partitions import Partition, StrictPartition, count_shifted_syt
from .qschur import XPoint, q_lambda, schur_s
from .rspec import hook_star, parse_rational_list, parse_rspec


def _parse_parts(text):
    text = text.strip()
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as e:
        raise ValueError("bad partition %r" % text) from e


def _at_least(low, **keywords):
    """argparse keywords for an integer no less than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return dict(type=parse, **keywords)


def _shipped_specs():
    return [
        rspec.Ones(),
        rspec.Cutoff(2),
        rspec.Cutoff(3),
        rspec.SymmetricRational([Fraction(1, 3)], []),
    ]


def _random_xpoint(rng, n):
    """n nonzero rationals with pairwise distinct absolute values."""
    vals = []
    seen = set()
    while len(vals) < n:
        v = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if v and abs(v) not in seen:
            seen.add(abs(v))
            vals.append(v if rng.random() < 0.5 else -v)
    return XPoint(vals)


def run_verify_suite(suite, W, seed=0):
    rng = random.Random(seed)
    # one instance per spec, so the checks share its tau_bkp and r values;
    # the first is the Ones that the Cauchy check reads
    specs = _shipped_specs()
    reports = []
    if suite in ("cauchy", "all"):
        reports.append(tau.check_cauchy(W, specs[0]))
    if suite in ("square", "all"):
        for spec in specs:
            reports.append(tau.check_square(spec, W))
    if suite in ("symmetry", "all"):
        for spec in specs:
            reports.append(tau.check_symmetry_scaling(spec, 2, W))
    if suite == "all":
        for spec in specs:
            for N in (1, 2):
                if pfaffian.two_alphabet_floor(N) <= W:
                    reports.append(pfaffian.check_two_alphabet_pfaffian(spec, N, W))
            reports.append(pfaffian.check_xpoint_pfaffian(spec, _random_xpoint(rng, 2), W))
            for m in (1, 3, 5):
                if m <= W:
                    reports.append(ops.check_linear_eq_N1(spec, m, W, W))
    return reports


def _hyper(args):
    a = parse_rational_list(args.a)
    b = parse_rational_list(args.b)
    payload = {"coefficients": [str(c) for c in tau.hyper_one_var(a, b, args.order)]}
    if args.weight:
        payload["tau_tinfty"] = tau.tau_hyper_tinfty(a, b, args.weight).to_json()
    return payload


def _tableaux(args):
    lam = StrictPartition(_parse_parts(args.lam))
    return {"count": count_shifted_syt(lam), "hook_star": str(hook_star(lam))}


def _pfaffian_check(args):
    spec = parse_rspec(args.r)
    low = pfaffian.two_alphabet_floor(args.n)
    if args.degree < low:
        raise ValueError(
            "degree %d is below N(N-1)+2 = %d: both sides agree for any r" % (args.degree, low)
        )
    return pfaffian.check_two_alphabet_pfaffian(spec, args.n, args.degree)


# arguments are (flag, argparse keywords) pairs.  Each run looks its check up
# through the check's module when it is called, so a check rebound there (by
# a test or a tracer) is the one that runs.
Command = namedtuple("Command", "name help arguments run")

_WEIGHT = ("--weight", _at_least(0, required=True))

COMMANDS = [
    Command("qfun", "projective Schur function Q_lambda(t/2)",
            [("--lambda", dict(dest="lam", required=True, help="parts, e.g. 2,1")), _WEIGHT],
            lambda args: q_lambda(StrictPartition(_parse_parts(args.lam)), args.weight).to_json()),
    Command("schur", "Schur function s_mu at odd times",
            [("--mu", dict(required=True, help="parts, e.g. 3,1")), _WEIGHT],
            lambda args: schur_s(Partition(_parse_parts(args.mu)), args.weight).to_json()),
    Command("tau", "BKP hypergeometric tau-function series",
            [("--r", dict(required=True, help="weight-function spec, e.g. cutoff:M=3")),
             _WEIGHT, ("--wstar", _at_least(0, default=None))],
            lambda args: tau.tau_bkp(parse_rspec(args.r), args.weight,
                                     args.weight if args.wstar is None else args.wstar).to_json()),
    Command("hyper", "generalized hypergeometric coefficients",
            [("--a", dict(default="", help="comma list of a parameters")),
             ("--b", dict(default="", help="comma list of b parameters")),
             ("--order", _at_least(0, required=True)),
             ("--weight", _at_least(0, default=0, help="also emit the t_inf tau"))],
            _hyper),
    Command("tableaux", "shifted standard tableaux count",
            [("--lambda", dict(dest="lam", required=True))], _tableaux),
    Command("verify", "run an identity suite",
            [("--suite", dict(choices=["cauchy", "square", "symmetry", "all"], default="all")),
             ("--weight", _at_least(1, default=8)), ("--seed", dict(type=int, default=0))],
            lambda args: run_verify_suite(args.suite, args.weight, args.seed)),
    Command("pfaffian-check", "two-alphabet Pfaffian identity",
            [("--r", dict(required=True)), ("--n", _at_least(1, default=2)),
             ("--degree", _at_least(1, default=10))],
            _pfaffian_check),
    Command("linear-check", "one-point linear constraint",
            [("--r", dict(required=True)), ("--m", _at_least(1, default=3)),
             ("--order", _at_least(1, default=8)), ("--weight", _at_least(1, default=8))],
            lambda args: ops.check_linear_eq_N1(parse_rspec(args.r), args.m, args.order,
                                                args.weight)),
]


def build_parser():
    p = argparse.ArgumentParser(
        prog="bkpq",
        description="Projective Schur Q-functions and BKP tau-function checks",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command.name, help=command.help)
        for flag, keywords in command.arguments:
            sp.add_argument(flag, **keywords)
        sp.add_argument("--json", action="store_true", help="compact JSON output")
        sp.set_defaults(run=command.run)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        result = args.run(args)
    except (ValueError, RecursionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    items = result if isinstance(result, list) else [result]
    reports = [r for r in items if isinstance(r, tau.TauReport)]
    if reports:
        result = [r.to_json() for r in items] if isinstance(result, list) else result.to_json()
    print(json.dumps(result, indent=None if args.json else 2, sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
