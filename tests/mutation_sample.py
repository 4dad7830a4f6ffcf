"""Sampled mutation score: seeded AST mutants of `src/bkpq` against tier-1.

`tests/mutants.py` holds hand-written regressions, known bugs that must
stay caught.  This script measures what the tests miss instead.  It lists
every mutation site of `src/bkpq` (`__init__` excluded):
  - an arithmetic, bitwise or shift operator swapped (+ and -, * and //,
    << and >>, ...), in an expression or an augmented assignment;
  - a comparison flipped at its boundary or negated (< and <=, > and >=,
    == and !=, in and not in, is and is not);
  - an int constant plus 1;
  - `and` and `or` swapped.
It draws `--count` sites with `random.Random(--seed)`, writes each mutant
into a copy of `src/` (the mutated file rewritten by `ast.unparse`), and
runs tier-1 against it with `pytest -x` in a process group of its own,
killed at a timeout, with an address-space cap on each of its processes.
A failing run (any nonzero status, a timeout included) kills the mutant.

A survivor is equivalent or a gap in the tests.  Equivalent ones are listed
with their reasons in `tests/mutation_equivalent.json`, by the id this script
prints: file, enclosing function, source line and the mutated expression.
A survivor not on that list is a gap: give it a test, or put it on the
list with a reason.  The script exits 1 when a sampled survivor is not on
the list, or when a listed mutant it sampled is killed.

Opt-in, not a CI step; it runs one mutant at a time.  From the repository
root, with pytest and hypothesis installed:

    python tests/mutation_sample.py --seed 1 --count 60

The score is killed / (sampled - equivalent).  A seed, once reported,
stays in use: the seed list may grow, but no seed is dropped.
"""

import argparse
import ast
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bkpq")
EQUIVALENT = os.path.join(ROOT, "tests", "mutation_equivalent.json")
TIMEOUT_S = 150
MEMORY_BYTES = 2 << 30

OPERATORS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.BitOr: ast.BitAnd,
    ast.BitAnd: ast.BitOr,
    ast.BitXor: ast.BitOr,
}
COMPARISONS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}
BOOLEANS = {ast.And: ast.Or, ast.Or: ast.And}


def _replace(holder, key, image):
    """Replace holder's attribute key, or its item key if key is an index,
    by image of it; return the undo."""
    get, put = (getattr, setattr) if isinstance(key, str) else (list.__getitem__, list.__setitem__)
    old = get(holder, key)
    put(holder, key, image(old))
    return lambda: put(holder, key, old)


def _swapped(table):
    return lambda op: table[type(op)]()


def _mutations(node):
    """One function per mutation of this node alone: each changes it in place
    and returns the function that undoes the change."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
        yield lambda: _replace(node, "op", _swapped(OPERATORS))
    elif isinstance(node, ast.BoolOp):
        yield lambda: _replace(node, "op", _swapped(BOOLEANS))
    elif isinstance(node, ast.Compare):
        for i in range(len(node.ops)):
            yield lambda i=i: _replace(node.ops, i, _swapped(COMPARISONS))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield lambda: _replace(node, "value", lambda v: v + 1)


class _Sites(ast.NodeVisitor):
    """The mutation sites of one module in source order, each as (enclosing
    qualified name, node, mutation)."""

    def __init__(self, tree):
        self.scope, self.sites = [], []
        self.visit(tree)

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def generic_visit(self, node):
        name = ".".join(self.scope) or "<module>"
        self.sites.extend((name, node, m) for m in _mutations(node))
        super().generic_visit(node)


def _modules():
    return sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def _parse(module):
    with open(os.path.join(PACKAGE, module)) as f:
        text = f.read()
    return text.splitlines(), ast.parse(text)


def sites():
    """[(module, index in its module, mutant id)] over the package."""
    out = []
    for module in _modules():
        lines, tree = _parse(module)
        seen = {}
        for i, (name, node, mutate) in enumerate(_Sites(tree).sites):
            before = ast.unparse(node)
            undo = mutate()
            after = ast.unparse(node)
            undo()
            head = "bkpq/%s %s: `%s`: `%s` -> `%s`" % (
                module, name, lines[node.lineno - 1].strip(), before, after
            )
            seen[head] = seen.get(head, 0) + 1
            out.append((module, i, head if seen[head] == 1 else "%s #%d" % (head, seen[head])))
    return out


def _write_mutant(src, module, index):
    """The copy's module rewritten with the index-th mutation applied, or
    with none when index is None."""
    tree = _parse(module)[1]
    if index is not None:
        _Sites(tree).sites[index][2]()
    with open(os.path.join(src, "bkpq", module), "w") as f:
        f.write(ast.unparse(tree) + "\n")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _tier1(src):
    """Tier-1 with pytest -x on bkpq from src: (outcome, seconds, first
    failing test)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "tests"]
    began = time.perf_counter()
    run = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, preexec_fn=_cap_memory, start_new_session=True)
    try:
        out = run.communicate(timeout=TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        return "killed", TIMEOUT_S, "(timeout)"
    seconds = time.perf_counter() - began
    if run.returncode == 0:
        return "survived", seconds, ""
    failing = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", seconds, failing[0] if failing else "(exit %d)" % run.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args(argv)
    with open(EQUIVALENT) as f:
        equivalent = {e["id"]: e["reason"] for e in json.load(f)}
    every = sites()
    sample = random.Random(args.seed).sample(every, min(args.count, len(every)))
    print("%d mutation sites; seed %d, %d sampled" % (len(every), args.seed, len(sample)))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src)
        # the unmutated copy, every module rewritten by ast.unparse, must pass
        for module in _modules():
            _write_mutant(src, module, None)
        if _tier1(src)[0] != "survived":
            sys.exit("tier-1 fails on the unmutated, unparsed copy of src/")
        counts, unexpected = {"killed": 0, "survived": 0, "equivalent": 0}, []
        for module, index, mutant in sample:
            _write_mutant(src, module, index)
            outcome, seconds, first = _tier1(src)
            _write_mutant(src, module, None)
            if mutant in equivalent:
                if outcome == "killed":
                    unexpected.append("listed as equivalent, but killed: " + mutant)
                outcome = "equivalent"
            elif outcome == "survived":
                unexpected.append("survived, not listed: " + mutant)
            counts[outcome] += 1
            print("%-10s %6.1f  %s" % (outcome, seconds, mutant))
            if first:
                print("%17s first failing: %s" % ("", first))
            if outcome == "equivalent":
                print("%17s equivalent: %s" % ("", equivalent[mutant]))
    scored = counts["killed"] + counts["survived"]
    print("killed %(killed)d, survived %(survived)d, equivalent %(equivalent)d" % counts)
    print("score %d/%d = %.3f, total %.0f s" % (
        counts["killed"], scored, counts["killed"] / scored if scored else 1.0,
        time.perf_counter() - start))
    for line in unexpected:
        print(line)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
