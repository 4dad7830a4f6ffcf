"""Spans around calls into bkpq, recorded from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
FUNCTIONS and METHODS with timing wrappers.  A function is rebound in every
loaded bkpq module that holds it (tau imports q_lambda by name, pfaffian
imports tau_bkp, ...), otherwise calls through those names would go
untraced.  `uninstall()` puts every original back.

Each span records (op id, name, start, end, parent).  Spans stay in memory
and `dump()` writes them out once, at the end of the process.  Aggregates
are kept as spans close: calls, self time (span time minus the time of its
child spans), outermost inclusive time, and per-name counters.
"""

import functools
import gzip
import json
import sys
import time
from array import array

PACKAGE = "bkpq"

FUNCTIONS = {
    "partitions": ["enumerate_strict", "enumerate_partitions"],
    "qschur": ["h_k", "q_lambda", "schur_s", "q_expand", "scalar_product", "eval_at_x"],
    "rspec": ["content_product_kp"],
    "tau": ["tau_bkp", "tau_kp", "check_cauchy", "check_square",
            "check_symmetry_scaling", "check_tau_scalar"],
    "pfaffian": ["pfaffian", "build_S", "build_R", "tau_as_multipoly", "tau_at_xpoint",
                 "check_two_alphabet_pfaffian", "check_xpoint_pfaffian"],
    "ops": ["tau_x_series", "apply_x_r_negD", "check_linear_eq_N1"],
    "cli": ["main"],
}

# span name -> (module, class, attributes that share one wrapper)
METHODS = {
    "gseries.OddSeries.mul": ("gseries", "OddSeries", ("__mul__", "__rmul__")),
    "gseries.OddSeries.add": ("gseries", "OddSeries", ("__add__", "__radd__")),
    "gseries.OddSeries.exp": ("gseries", "OddSeries", ("exp",)),
    "gseries.BiSeries.mul": ("gseries", "BiSeries", ("__mul__", "__rmul__")),
    "gseries.BiSeries.exp": ("gseries", "BiSeries", ("exp",)),
    "pfaffian.MultiPoly.mul": ("pfaffian", "MultiPoly", ("__mul__", "__rmul__")),
    # no subclass overrides r_lambda, so the base method sees every call
    "rspec.r_lambda": ("rspec", "RSpec", ("r_lambda",)),
}

# generators: counted (items yielded by the outermost call), not timed
GENERATORS = {"pfaffian": ["perfect_matchings"]}

# Stat fields
CALLS, SELF_NS, INCL_NS, PAIRS, TERMS_OUT, ITEMS, ZEROS, ACTIVE = range(8)
FIELDS = ("calls", "self_ns", "incl_ns", "pairs", "terms_out", "items", "zeros")


def package_modules():
    """Loaded bkpq modules, by short name ('' for the package itself)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            out[name[len(PACKAGE) + 1:]] = mod
    return out


def find_caches():
    """Every callable in a bkpq module or class that exposes cache_info().

    Returns (owner module short name, qualname, callable), deduplicated by
    identity.  Nothing here names a private function.
    """
    found = {}
    for modname, mod in sorted(package_modules().items()):
        for obj in list(vars(mod).values()):
            candidates = [obj]
            if isinstance(obj, type) and obj.__module__.startswith(PACKAGE):
                candidates += list(vars(obj).values())
            for c in candidates:
                if callable(getattr(c, "cache_info", None)) and id(c) not in found:
                    owner = getattr(c, "__module__", None) or modname
                    found[id(c)] = (owner.rsplit(".", 1)[-1], c.__qualname__, c)
    return sorted(found.values(), key=lambda t: (t[0], t[1]))


def cache_snapshot():
    """{owner.qualname: [hits, misses, currsize]} for every cache found."""
    out = {}
    for owner, qualname, c in find_caches():
        info = c.cache_info()
        out["%s.%s" % (owner, qualname)] = [info.hits, info.misses, info.currsize]
    return out


def _terms(x):
    return len(x.terms) if hasattr(x, "terms") else 1


class Tracer:
    def __init__(self):
        self.op = 0
        self.names = []
        self.stats = {}
        # flat records of (index, op, name id, start ns, end ns, parent index)
        self.spans = array("q")
        self.stack = []
        self.next_index = 0
        self.restore = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = [0] * 8
            self.names.append(name)
        return self.stats[name], self.names.index(name)

    def _timed(self, name, fn):
        stat, nid = self._stat(name)
        binary = name.endswith(".mul")
        sums_child_pairs = name.endswith(".exp")
        counts_terms = binary or sums_child_pairs or name in ("tau.tau_bkp", "tau.tau_kp")
        counts_items = name.startswith("partitions.enumerate_")
        counts_zeros = name == "rspec.r_lambda"
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.next_index
            self.next_index = index + 1
            parent = stack[-1][0] if stack else -1
            pairs = _terms(args[0]) * _terms(args[1]) if binary else 0
            frame = [index, 0, 0]  # index, child ns, child pairs
            stack.append(frame)
            stat[ACTIVE] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[ACTIVE] -= 1
                dur = end - start
                stat[CALLS] += 1
                stat[SELF_NS] += dur - frame[1]
                if not stat[ACTIVE]:
                    stat[INCL_NS] += dur
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += pairs
                spans.extend((index, self.op, nid, start, end, parent))
            stat[PAIRS] += frame[2] if sums_child_pairs else pairs
            if counts_terms:
                stat[TERMS_OUT] += len(result.terms)
            if counts_items:
                stat[ITEMS] += len(result)
            if counts_zeros and not result:
                stat[ZEROS] += 1
            return result

        return wrapper

    def _counted_generator(self, name, fn):
        stat, _ = self._stat(name)
        state = {"inside": False}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if state["inside"]:  # a recursive call made by the outermost one
                yield from fn(*args, **kwargs)
                return
            state["inside"] = True
            stat[CALLS] += 1
            try:
                for item in fn(*args, **kwargs):
                    stat[ITEMS] += 1
                    yield item
            finally:
                state["inside"] = False

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod in package_modules().values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        mods = package_modules()
        for modname, names in FUNCTIONS.items():
            for fname in names:
                fn = getattr(mods[modname], fname)
                self._rebind_everywhere(fn, self._timed("%s.%s" % (modname, fname), fn))
        for modname, names in GENERATORS.items():
            for fname in names:
                fn = getattr(mods[modname], fname)
                self._rebind_everywhere(fn, self._counted_generator("%s.%s" % (modname, fname), fn))
        for name, (modname, clsname, attrs) in METHODS.items():
            cls = getattr(mods[modname], clsname)
            wrapper = self._timed(name, vars(cls)[attrs[0]])
            for attr in attrs:
                self.restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        while self.restore:
            owner, attr, original = self.restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self):
        """{name: [calls, self_ns, incl_ns, pairs, terms_out, items, zeros]}."""
        return {name: stat[:ACTIVE] for name, stat in self.stats.items()}

    def reset_counts(self):
        for stat in self.stats.values():
            stat[:ACTIVE] = [0] * ACTIVE

    def dump(self, path):
        """Write every span recorded so far: a JSON header, then one span a line."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"names": self.names, "fields": [
                "index", "op", "name", "start_ns", "end_ns", "parent"]}) + "\n")
            f.writelines(
                "%d %d %d %d %d %d\n" % tuple(s[k:k + 6]) for k in range(0, len(s), 6)
            )
