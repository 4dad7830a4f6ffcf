"""The diagonal operator r(D) and the one-point linear constraint,
plus the same checks driven through the command-line interface."""

import json
import subprocess
import sys
from fractions import Fraction

from bkpq import Cutoff, Ones, RationalPS
from bkpq.ops import apply_x_r_negD, check_linear_eq_N1, tau_x_series

spec = RationalPS([1], [2])
f = tau_x_series(spec, 5, 6)
g = apply_x_r_negD(f, spec)
print("(x r(-D)) acts on the restricted tau series; x^3 coefficient of the")
print("image has constant term", g[3].constant_term())
print()

for s in (Ones(), Cutoff(2), spec):
    for m in (1, 3, 5):
        rep = check_linear_eq_N1(s, m, 8, 8)
        print("linear constraint  %-28s m=%d  %s"
              % (rep.params["r"], m, "pass" if rep.passed else "FAIL"))
print()

print("The same identities through the CLI (exit code 0 = all pass):")
cmd = [sys.executable, "-m", "bkpq.cli", "verify", "--suite", "square",
       "--weight", "6", "--json"]
proc = subprocess.run(cmd, capture_output=True, text=True)
print("  exit code:", proc.returncode)
for rep in json.loads(proc.stdout):
    print("  %-10s %-40s %s" % (rep["name"], rep["params"].get("r", ""),
                                rep["pass"]))
