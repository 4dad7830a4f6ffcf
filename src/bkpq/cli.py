"""Command-line entry point.

Exit codes: 0 success / all identities pass, 1 identity failure (witness in
the JSON output), 2 usage error.  All numbers are emitted as exact "p/q"
strings; with a fixed --seed the output is byte-identical between runs.
"""

import argparse
import json
import random
import sys
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


def _int_at_least(low):
    """An argparse type for integers no less than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


def _emit(args, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_qfun(args):
    lam = StrictPartition(_parse_parts(args.lam))
    _emit(args, q_lambda(lam, args.weight).to_json())
    return 0


def cmd_schur(args):
    mu = Partition(_parse_parts(args.mu))
    _emit(args, schur_s(mu, args.weight).to_json())
    return 0


def cmd_tau(args):
    spec = parse_rspec(args.r)
    wstar = args.wstar if args.wstar is not None else args.weight
    _emit(args, tau.tau_bkp(spec, args.weight, wstar).to_json())
    return 0


def cmd_hyper(args):
    a = parse_rational_list(args.a)
    b = parse_rational_list(args.b)
    coeffs = tau.hyper_one_var(a, b, args.order)
    payload = {"coefficients": [str(c) for c in coeffs]}
    if args.weight:
        payload["tau_tinfty"] = tau.tau_hyper_tinfty(a, b, args.weight).to_json()
    _emit(args, payload)
    return 0


def cmd_tableaux(args):
    lam = StrictPartition(_parse_parts(args.lam))
    _emit(
        args,
        {"count": count_shifted_syt(lam), "hook_star": str(hook_star(lam))},
    )
    return 0


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
    reports = []
    if suite in ("cauchy", "all"):
        reports.append(tau.check_cauchy(W))
    if suite in ("square", "all"):
        for spec in _shipped_specs():
            reports.append(tau.check_square(spec, W))
    if suite in ("symmetry", "all"):
        for spec in _shipped_specs():
            reports.append(tau.check_symmetry_scaling(spec, 2, W))
    if suite == "all":
        for spec in _shipped_specs():
            for N in (1, 2):
                reports.append(pfaffian.check_two_alphabet_pfaffian(spec, N, W))
            reports.append(pfaffian.check_xpoint_pfaffian(spec, _random_xpoint(rng, 2), W))
            for m in (1, 3, 5):
                reports.append(ops.check_linear_eq_N1(spec, m, W, W))
    return reports


def cmd_verify(args):
    reports = run_verify_suite(args.suite, args.weight, args.seed)
    _emit(args, [r.to_json() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def cmd_pfaffian_check(args):
    spec = parse_rspec(args.r)
    rep = pfaffian.check_two_alphabet_pfaffian(spec, args.n, args.degree)
    _emit(args, rep.to_json())
    return 0 if rep.passed else 1


def cmd_linear_check(args):
    spec = parse_rspec(args.r)
    rep = ops.check_linear_eq_N1(spec, args.m, args.order, args.weight)
    _emit(args, rep.to_json())
    return 0 if rep.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="bkpq",
        description="Projective Schur Q-functions and BKP tau-function checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="compact JSON output")

    sp = sub.add_parser("qfun", help="projective Schur function Q_lambda(t/2)")
    sp.add_argument("--lambda", dest="lam", required=True, help="parts, e.g. 2,1")
    sp.add_argument("--weight", type=_int_at_least(0), required=True)
    common(sp)
    sp.set_defaults(func=cmd_qfun)

    sp = sub.add_parser("schur", help="Schur function s_mu at odd times")
    sp.add_argument("--mu", required=True, help="parts, e.g. 3,1")
    sp.add_argument("--weight", type=_int_at_least(0), required=True)
    common(sp)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("tau", help="BKP hypergeometric tau-function series")
    sp.add_argument("--r", required=True, help="weight-function spec, e.g. cutoff:M=3")
    sp.add_argument("--weight", type=_int_at_least(0), required=True)
    sp.add_argument("--wstar", type=_int_at_least(0), default=None)
    common(sp)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("hyper", help="generalized hypergeometric coefficients")
    sp.add_argument("--a", default="", help="comma list of a parameters")
    sp.add_argument("--b", default="", help="comma list of b parameters")
    sp.add_argument("--order", type=_int_at_least(0), required=True)
    sp.add_argument(
        "--weight", type=_int_at_least(0), default=0, help="also emit the t_inf tau"
    )
    common(sp)
    sp.set_defaults(func=cmd_hyper)

    sp = sub.add_parser("tableaux", help="shifted standard tableaux count")
    sp.add_argument("--lambda", dest="lam", required=True)
    common(sp)
    sp.set_defaults(func=cmd_tableaux)

    sp = sub.add_parser("verify", help="run an identity suite")
    sp.add_argument(
        "--suite",
        choices=["cauchy", "square", "symmetry", "all"],
        default="all",
    )
    sp.add_argument("--weight", type=_int_at_least(1), default=8)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("pfaffian-check", help="two-alphabet Pfaffian identity")
    sp.add_argument("--r", required=True)
    sp.add_argument("--n", type=_int_at_least(1), default=2)
    sp.add_argument("--degree", type=_int_at_least(1), default=10)
    common(sp)
    sp.set_defaults(func=cmd_pfaffian_check)

    sp = sub.add_parser("linear-check", help="one-point linear constraint")
    sp.add_argument("--r", required=True)
    sp.add_argument("--m", type=_int_at_least(1), default=3)
    sp.add_argument("--order", type=_int_at_least(1), default=8)
    sp.add_argument("--weight", type=_int_at_least(1), default=8)
    common(sp)
    sp.set_defaults(func=cmd_linear_check)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
