"""Per-layer measurement from outside the library: spans and exact counts.

The traced pass replaces the public entry points of each mapvir module with
wrappers that record spans (name, start, end, parent span), then puts every
original back.  The counting pass runs a batch under ``cProfile`` and reads
exact call counts of private hot functions and of ``Fraction`` arithmetic,
which no wrapper can see without slowing them down.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped by the traced pass; the span is named
# "<module without the package>.<function>"
ENTRY_POINTS = (
    ("mapvir.verma", "quotient_dims"),
    ("mapvir.verma", "pairing_matrix"),
    ("mapvir.verma", "apply_raising"),
    ("mapvir.verma", "singular_vectors"),
    ("mapvir.verma", "in_maximal_submodule"),
    ("mapvir.verma", "check_quasifinite"),
    ("mapvir.verma", "check_verma_reducible"),
    ("mapvir.verma", "split_phi"),
    ("mapvir.pbw", "pbw_basis"),
    ("mapvir.pbw", "straighten"),
    ("mapvir.linalg", "rref"),
    ("mapvir.linalg", "rank"),
    ("mapvir.linalg", "kernel"),
    ("mapvir.linalg", "solve"),
    ("mapvir.recurrence", "minimal_annihilator"),
    ("mapvir.algebra", "local_decomposition"),
    ("mapvir.algebra", "ideal_power"),
    ("mapvir.algebra", "quotient_algebra"),
    ("mapvir.evalmod", "weight_multiplicities"),
    ("mapvir.evalmod", "annihilator_support"),
    ("mapvir.classify", "classify_module"),
    ("mapvir.classify", "trichotomy_profile"),
    ("mapvir.cli", "main"),
)

def _rref_info(args, result):
    rows = args[0]
    return (len(rows), len(rows[0]) if rows else 0, len(result[0]))


def _len_info(args, result):
    return len(result)


# span name -> what to record about the call besides its time
INFO = {"linalg.rref": _rref_info, "pbw.pbw_basis": _len_info}

# counted metric -> (file suffix, function names)
FRACTION_OPS = ("__new__", "_add", "_sub", "_mul", "_div", "_floordiv", "_mod",
                "_divmod", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
                "_from_coprime_ints")
COUNTED = {
    "verma.act_basis_calls": (os.path.join("mapvir", "verma.py"), ("_act_basis",)),
    "pbw.left_mult_calls": (os.path.join("mapvir", "pbw.py"), ("_left_mult",)),
    "algebra.mul_coeffs_calls": (os.path.join("mapvir", "algebra.py"), ("_mul_coeffs",)),
    "scalars.fraction_ops": ("fractions.py", FRACTION_OPS),
}


class Tracer:
    """Spans kept in memory as [id, parent id, name, start, end, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def _wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[5] = info(args, result)
                return result

        return wrapper

    def install(self):
        """Wrap every entry point under each name a mapvir module binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mapvir" or n.startswith("mapvir."))]
        for modname, attr in ENTRY_POINTS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, f"{modname.split('.', 1)[1]}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def restore(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def span_stats(spans: list[list]) -> dict:
    """Per span name: number of calls and self time (duration minus the time
    covered by its child spans)."""
    child = [0.0] * len(spans)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out: dict = {}
    for sid, parent, name, t0, t1, _ in spans:
        st = out.setdefault(name, {"calls": 0, "self": 0.0})
        st["calls"] += 1
        st["self"] += t1 - t0 - child[sid]
    return out


def _has_ancestor(spans, parent, names) -> bool:
    while parent is not None:
        if spans[parent][2] in names:
            return True
        parent = spans[parent][1]
    return False


def _top_time(spans, names) -> float:
    """Time inside any of the named spans, each interval counted once."""
    return sum(t1 - t0 for _, parent, name, t0, t1, _ in spans
               if name in names and not _has_ancestor(spans, parent, names))


def layer_metrics(spans: list[list], gauges: list[dict]) -> dict:
    """The traced and gauge per-layer metrics of one batch."""
    st = span_stats(spans)

    def get(name, key):
        return st.get(name, {}).get(key, 0)

    rref = [s[5] for s in spans if s[2] == "linalg.rref" and s[5] is not None]
    rows = sum(r for r, _, _ in rref)
    solve_in_detect = sum(
        1 for _, parent, name, *_ in spans
        if name == "linalg.solve" and _has_ancestor(spans, parent, ("recurrence.minimal_annihilator",)))
    return {
        "verma.quotient_dims_s": _top_time(spans, ("verma.quotient_dims",)),
        "verma.pairing_self_s": get("verma.pairing_matrix", "self"),
        "verma.raising_s": get("verma.apply_raising", "self"),
        "verma.raising_calls": get("verma.apply_raising", "calls"),
        "verma.act_cache_entries": max((g.get("act_cache_entries", 0) for g in gauges), default=0),
        "verma.singular_s": _top_time(spans, ("verma.singular_vectors",)),
        "verma.maxsub_s": _top_time(spans, ("verma.in_maximal_submodule",)),
        "verma.check_s": _top_time(spans, ("verma.check_quasifinite", "verma.check_verma_reducible")),
        "pbw.basis_s": get("pbw.pbw_basis", "self"),
        "pbw.basis_monomials": sum(s[5] for s in spans if s[2] == "pbw.pbw_basis" and s[5] is not None),
        "pbw.left_mult_cache_entries": max((g.get("left_mult_cache_entries", 0) for g in gauges),
                                           default=0),
        "linalg.rref_s": get("linalg.rref", "self"),
        "linalg.rref_calls": get("linalg.rref", "calls"),
        "linalg.rref_cells": sum(r * c for r, c, _ in rref),
        "linalg.rank_yield": sum(k for _, _, k in rref) / rows if rows else 0.0,
        "linalg.kernel_s": get("linalg.kernel", "self"),
        "linalg.solve_s": get("linalg.solve", "self"),
        "recurrence.detect_s": _top_time(spans, ("recurrence.minimal_annihilator",)),
        "recurrence.detect_calls": get("recurrence.minimal_annihilator", "calls"),
        "recurrence.solve_calls": solve_in_detect,
        "algebra.decomp_s": _top_time(spans, ("algebra.local_decomposition", "algebra.ideal_power",
                                              "algebra.quotient_algebra")),
        "evalmod.weights_s": _top_time(spans, ("evalmod.weight_multiplicities",)),
        "evalmod.annihilator_s": _top_time(spans, ("evalmod.annihilator_support",)),
        "classify.classify_s": _top_time(spans, ("classify.classify_module",)),
        "classify.trichotomy_s": _top_time(spans, ("classify.trichotomy_profile",)),
        "cli.main_s": _top_time(spans, ("cli.main",)),
    }


def layer_shares(spans: list[list]) -> dict:
    """Share of the batch's time that each module spends as self time; time
    in no wrapped entry point (query set-up, private helpers called directly)
    is ``other``."""
    st = span_stats(spans)
    total = sum(v["self"] for v in st.values()) or 1.0
    shares: dict = {}
    for name, v in st.items():
        layer = name.split(".", 1)[0] if "." in name else "other"
        shares[layer] = shares.get(layer, 0.0) + v["self"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def count_calls(fn) -> dict:
    """Run fn under cProfile; exact call counts of the COUNTED functions."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    counts = dict.fromkeys(COUNTED, 0)
    for (filename, _, funcname), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        for metric, (suffix, names) in COUNTED.items():
            if funcname in names and filename.endswith(suffix):
                counts[metric] += ncalls
    return counts

