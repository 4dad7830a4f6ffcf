"""Mutation table: each entry breaks `src/` on purpose and names the tests
that must notice.  This file also holds the one harness that runs it and
the sampled mutants of `tests/mutation_sample.py`.

The harness copies `src/` once to a temporary directory and checks that
bkpq is imported from that copy, not from an installed package.  Tier-1
(`--continue-on-collection-errors tests`) must pass once on the unmutated
copy; every entry's selection is a part of it.  Then, for each entry, it
writes the mutated file into the copy, runs the entry's selection, and
writes the original text back.

The runner is `pytest -x -q -p no:cacheprovider <selection>` with bkpq
imported from the copy and PYTHONDONTWRITEBYTECODE=1, in a process group
of its own: each of its processes is capped at MEMORY_BYTES of address
space, and the whole group is killed at TIMEOUT_S.  One outcome rule holds
for both scripts: exit status 0 means the mutant survived; exit status 1
(a failing test) or a timeout means it was killed; any other status (here,
a mutant that breaks the import or the collection) is an error.  A mutant
is expected to be killed unless it carries a reason to survive: here the
`survives` text of a known blind spot, so a change that starts to kill
one shows up too.

Run it from the repository root; the name keeps it out of the tier-1
collection:

    python tests/mutants.py

It prints one row per entry and exits 1 when any outcome differs from the
expected one.  It uses only the standard library and pytest.
"""

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 150
MEMORY_BYTES = 2 << 30
# tier-1, the baseline of every entry's selection and the sampler's selection
TIER1 = ["--continue-on-collection-errors", "tests"]


def _mutant(name, path, old, new, tests, survives=None):
    return dict(name=name, path=path, old=old, new=new, tests=tests, survives=survives)


MUTANTS = [
    _mutant(
        "tau: the mirror written at the triangle keys",
        "bkpq/tau.py",
        "out.update(zip(compress(mirror, values), kept))",
        "out.update(zip(compress(triangle, values), kept))",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: one block not divided by g",
        "bkpq/tau.py",
        "kept = [v // g for v in compress(values, values)]",
        "kept = [v // (g if values is not cells[0][2] else 1) for v in compress(values, values)]",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "gseries: the t* time read for a t variable (FOUND 21)",
        "bkpq/gseries.py",
        "Fraction(image(codec.name(i, var)))",
        "Fraction(image(codec.name(1 - i, var)))",
        ["tests/test_gseries.py"],
    ),
    _mutant(
        "gseries: a part with a zero time kept, the zero read as 1",
        "bkpq/gseries.py",
        "if not x[0]:\n                        break",
        "if not x[0]:\n                        continue",
        ["tests/test_gseries.py", "tests/test_qschur.py"],
    ),
    _mutant(
        "rspec: the content-product denominator dropped",
        "bkpq/rspec.py",
        "den * row[1]\n    return num, den\n",
        "den * row[1]\n    return num, 1\n",
        ["tests/test_rspec.py", "tests/test_tau.py"],
    ),
    _mutant(
        "rspec: a content row kept by its length alone",
        "bkpq/rspec.py",
        "key = (i, p)",
        "key = p",
        ["tests/test_rspec.py"],
    ),
    _mutant(
        "qschur: the sign of an m-border strip flipped in _strips",
        "bkpq/qschur.py",
        "out.append(((-1) ** sum(b - m < c < b for c in beta), left))",
        "out.append((-(-1) ** sum(b - m < c < b for c in beta), left))",
        ["tests/test_qschur.py"],
    ),
    _mutant(
        "qschur: m * c read as c in _euler",
        "bkpq/qschur.py",
        "(m * c, codec.variable(m), _euler(mu, W, removals))",
        "(c, codec.variable(m), _euler(mu, W, removals))",
        ["tests/test_qschur.py"],
    ),
    _mutant(
        "tau: the diagonal cell left out of _diagonal_sum",
        "bkpq/tau.py",
        "for i, a in seen:",
        "for i, a in seen[:-1]:",
        ["tests/test_tau.py::test_tau_bkp_ones_is_vacuum_kernel"],
    ),
    _mutant(
        "tau: the e_m divisor dropped from _exp_kernel's closed form",
        "bkpq/tau.py",
        "(below[0] * a, below[1] * b * e)",
        "(below[0] * a, below[1] * b)",
        ["tests/test_tau.py::test_exp_kernel_closed_form_matches_the_series_exp"],
    ),
    _mutant(
        "tau: the 2^l dropped in tau_terms",
        "bkpq/tau.py",
        "yield n, d << l, q",
        "yield n, d, q",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "rspec: r_lambda_pair reads the prefix below each part",
        "bkpq/rspec.py",
        "prefixes[p]",
        "prefixes[p - 1]",
        ["tests/test_rspec.py"],
    ),
    _mutant(
        "rspec: (n - 1) read as n in RationalPS's integer r(n)",
        "bkpq/rspec.py",
        "= n - 1, self._pairs,",
        "= n, self._pairs,",
        ["tests/test_rspec.py"],
    ),
    _mutant(
        "tau: the swap check reads each key itself, not its mirror",
        "bkpq/tau.py",
        "m = k >> shift | (k & low) << shift",
        "m = k",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the swap check flags a key but not its mirror",
        "bkpq/tau.py",
        "swap[k], swap[m] = (w, v), (v, w)",
        "swap[k] = (w, v)",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the scaling check compares the t-weight with itself",
        "bkpq/tau.py",
        "s = (k & mask) - (m & mask)",
        "s = (k & mask) - (k & mask)",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the scaling witness's lhs left unscaled",
        "bkpq/tau.py",
        "scale[k] = (v * a ** s, v)",
        "scale[k] = (v, v)",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the scaling check flags every weight gap, not a^s != 1",
        "bkpq/tau.py",
        "if s and a ** s != 1:",
        "if s and s != 0:",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the t* kernel read off the t cap's numbering, caps unequal",
        "bkpq/tau.py",
        "zip(_numbering(w, Wg)[0], factors)",
        "zip(_numbering(w, Wf)[0], factors)",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: the t kernel's dual row shifted by one index",
        "bkpq/tau.py",
        "zip(_numbering(w, Wf)[0], factors)",
        "zip(_numbering(w, Wf)[0][1:], factors)",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: check_tau_scalar's witness loop stops short of weight W",
        "bkpq/tau.py",
        "for w in range(W + 1):",
        "for w in range(W - 1):",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: check_tau_scalar's zero-alphabet refusal removed",
        "bkpq/tau.py",
        "if not any(times.values()):",
        "if False:",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "tau: t_infinity read with p_m = 1/2 at every m, not only m = 1",
        "bkpq/tau.py",
        "(int(m == 1), 2)",
        "(1, 2)",
        ["tests/test_tau.py", "-k", "hyper"],
    ),
    _mutant(
        "tau: 1/n! dropped from hyper_one_var",
        "bkpq/tau.py",
        "spec.r_prefix(n) / factorial(n)",
        "spec.r_prefix(n)",
        ["tests/test_tau.py", "-k", "hyper"],
    ),
    _mutant(
        "ops: tau_x_series without its factor 2",
        "bkpq/ops.py",
        "Fraction(2 * num, den)",
        "Fraction(num, den)",
        ["tests/test_ops.py"],
    ),
    _mutant(
        "ops: tau_x_series truncated at W, not min(n_max, W)",
        "bkpq/ops.py",
        "cap = min(n_max, W)\n",
        "cap = W\n",
        ["tests/test_ops.py"],
    ),
    _mutant(
        "partitions: enumerate_partitions on the strict rule",
        "bkpq/partitions.py",
        "(Partition, 0)",
        "(Partition, 1)",
        ["tests/test_partitions.py"],
    ),
    _mutant(
        "pfaffian: the unreversed x-row in owed",
        "bkpq/pfaffian.py",
        "var(xv(m)) + var(xv(k))",
        "var(m) + var(k)",
        ["tests/test_pfaffian.py"],
    ),
    _mutant(
        "pfaffian: the unreversed x-row in the cross block",
        "bkpq/pfaffian.py",
        "xv(k), N + m",
        "k, N + m",
        ["tests/test_pfaffian.py"],
    ),
    _mutant(
        "pfaffian: tau cut two degrees below D - N(N-1)",
        "bkpq/pfaffian.py",
        "D - N * (N - 1)",
        "D - N * (N - 1) - 2",
        ["tests/test_pfaffian.py"],
    ),
    _mutant(
        "qschur: h_k built by _strips, not _bars",
        "bkpq/qschur.py",
        "return _euler((k,) if k else (), W, _bars)",
        "return _euler((k,) if k else (), W, _strips)",
        ["tests"],
        survives="h_k = Q_(k) = s_(k) at odd times, so either removal rule "
        "builds the same series",
    ),
    _mutant(
        "qschur: the Miwa 2/m dropped from _miwa_reader's table",
        "bkpq/qschur.py",
        "image[m] = (2 * p, m * q)",
        "image[m] = (p, q)",
        ["tests/test_qschur.py"],
    ),
    _mutant(
        "tau: r_mu' dropped from a conjugate pair of tau_kp",
        "bkpq/tau.py",
        "n, d = n * e + m * d, d * e",
        "n, d = n * e, d * e",
        ["tests/test_tau.py"],
    ),
    _mutant(
        "pfaffian: tau_at_xpoint returns 2 tau + 7",
        "bkpq/pfaffian.py",
        "W, len(x))\n",
        "W, len(x)) * 2 + 7\n",
        ["tests/test_cli.py", "-k", "verify"],
        survives="verify runs the x-point check only at N=2, where it holds "
        "for any tau, until ROADMAP item 1 moves it to N=3",
    ),
]


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_selection(src, selection):
    """pytest -x on selection, with bkpq imported from src: (outcome,
    seconds, first failing test)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    began = time.perf_counter()
    run = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, preexec_fn=_cap_memory, start_new_session=True)
    try:
        out = run.communicate(timeout=TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        return "killed", TIMEOUT_S, "(timeout)"
    outcome = {0: "survived", 1: "killed"}.get(run.returncode, "error %d" % run.returncode)
    failing = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return outcome, time.perf_counter() - began, failing[0] if failing else ""


def _check_imports_from(src):
    """bkpq must come from the copy, not from an installed package."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = "import bkpq, sys; sys.stdout.write(bkpq.__file__)"
    where = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True)
    if not where.stdout.decode().startswith(os.path.join(src, "")):
        sys.exit("bkpq is not imported from the copy under test: %r" % where.stdout)


def run_mutants(entries, prepare=None):
    """Run each entry, a dict of name, path (under `src/`), text (the mutated
    file), tests (the selection) and survives (a reason, or None), against
    one copy of `src/`, handed to prepare first if given.  Print one row per
    entry; return the outcomes and how many differ from the expected."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src)
        if prepare:
            prepare(src)
        _check_imports_from(src)
        if run_selection(src, TIER1)[0] != "survived":
            sys.exit("the unmutated copy of src/ fails tier-1")
        print("%-9s %-9s %6s  %s" % ("expected", "outcome", "s", "mutant"))
        outcomes, unexpected = [], []
        for e in entries:
            path = Path(src, e["path"])
            original = path.read_text()
            path.write_text(e["text"])
            outcome, seconds, first = run_selection(src, e["tests"])
            path.write_text(original)
            expected = "survived" if e["survives"] else "killed"
            if outcome != expected:
                unexpected.append("%s, expected %s: %s" % (outcome, expected, e["name"]))
            outcomes.append(outcome)
            print("%-9s %-9s %6.1f  %s" % (expected, outcome, seconds, e["name"]))
            if first:
                print("%27s first failing: %s" % ("", first))
            if e["survives"]:
                print("%27s survives: %s" % ("", e["survives"]))
    print("total %.1f s" % (time.perf_counter() - start))
    for line in unexpected:
        print(line)
    return outcomes, len(unexpected)


def main():
    entries = []
    for m in MUTANTS:
        text = Path(ROOT, "src", m["path"]).read_text()
        if text.count(m["old"]) != 1:
            sys.exit("%s: the snippet to replace is not in %s once" % (m["name"], m["path"]))
        entries.append(dict(m, text=text.replace(m["old"], m["new"])))
    return 1 if run_mutants(entries)[1] else 0


if __name__ == "__main__":
    sys.exit(main())
