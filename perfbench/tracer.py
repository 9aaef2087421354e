"""Outside-in tracing of resgrass: spans and counts at its module boundaries.

The tracer wraps public functions of each module without touching the
package.  Modules import names from each other directly (resonance calls
`buchberger`, grobner calls `rref`, oracle calls `row_rank`), so a wrapper
replaces every module-level reference to the original function across the
package, not only the one in its defining module.

Spans are kept in memory as [name, parent index, start, end] and written
out by the caller.  Counts come from two places: how often a span occurs
under a given parent, and observers that read a wrapped function's output.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "resgrass"

# module -> public functions that mark a layer boundary
TARGETS = {
    "cli": ("main",),
    "arrangement": ("load_arrangement", "dependent_sets"),
    "resonance": (
        "r1_hilbert",
        "os_points",
        "span_forms",
        "decomposables_in_I2_bruteforce",
        "is_decomposable",
    ),
    "grobner": ("plucker_ideal", "buchberger", "normal_form"),
    "hilbert": ("leading_ideal", "hilbert_numerator", "hilbert_polynomial"),
    "field": ("rref", "rank", "kernel_basis"),
    "exterior": ("os_ideal_part",),
    "oracle": ("check_prop21", "enumerate_r1", "aomoto_profile", "is_resonant_1", "is_resonant_k"),
}


def _observe_basis(counts, gb):
    degs = [g.degree() for g in gb]
    counts["grobner.gb_size"] += len(degs)
    counts["grobner.vars_after_elim"] += gb.ring.nvars - degs.count(1)
    counts["grobner.gb_max_deg"] = max(counts["grobner.gb_max_deg"], max(degs, default=0))


def _observe_leading(counts, mi):
    counts["hilbert.lead_mingens"] += len(mi)


def _observe_enumeration(counts, found):
    counts["oracle.resonant_points"] += len(found)


def _observe_decomposable(counts, hit):
    counts["resonance.decomp_hits"] += bool(hit)


OBSERVERS = {
    "grobner.buchberger": _observe_basis,
    "hilbert.leading_ideal": _observe_leading,
    "oracle.enumerate_r1": _observe_enumeration,
    "resonance.is_decomposable": _observe_decomposable,
}


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, observe):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, out)
            return out

        return traced

    def install(self):
        for mod in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        spaces = [
            m for key, m in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for mod, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fname in names:
                orig = getattr(home, fname)
                span = f"{mod}.{fname}"
                wrapper = self._wrap(span, orig, OBSERVERS.get(span))
                for space in spaces:
                    for attr, val in list(vars(space).items()):
                        if val is orig:
                            setattr(space, attr, wrapper)
                            self._patches.append((space, attr, orig))
        return self

    def uninstall(self):
        for space, attr, orig in reversed(self._patches):
            setattr(space, attr, orig)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name, so
    nested calls of one function are not counted twice.  Self time is the
    span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, parent, t0, t1) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            row["total_s"] += t1 - t0
    return out


def child_stats(spans, name: str, parent: str):
    """(calls, seconds) of spans called name whose direct parent is called parent."""
    calls, secs = 0, 0.0
    for n, par, t0, t1 in spans:
        if n == name and par >= 0 and spans[par][0] == parent:
            calls += 1
            secs += t1 - t0
    return calls, secs


def counts_of(spans, counts):
    """Every count of one traced pass: span tallies plus observed outputs."""
    out = {f"calls.{name}": row["calls"] for name, row in summarize(spans).items()}
    out.update(counts)
    return dict(sorted(out.items()))


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    rows = summarize(spans)

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    elim = sum(
        child_stats(spans, name, "grobner.buchberger")[1]
        for name in ("field.rref", "grobner.normal_form")
    )
    scanned = child_stats(spans, "field.rank", "oracle.enumerate_r1")[0]
    candidates = child_stats(
        spans, "resonance.is_decomposable", "resonance.decomposables_in_I2_bruteforce"
    )[0]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "grobner.buchberger_s": (total("grobner.buchberger"), "s"),
        "grobner.engine_self_s": (self_s("grobner.buchberger"), "s"),
        "grobner.linear_elim_s": (elim, "s"),
        "grobner.normal_form_calls": (calls("grobner.normal_form"), "count"),
        "grobner.gb_size": (counts["grobner.gb_size"], "count"),
        "grobner.gb_max_deg": (counts["grobner.gb_max_deg"], "count"),
        "grobner.vars_after_elim": (counts["grobner.vars_after_elim"], "count"),
        "hilbert.leading_ideal_s": (total("hilbert.leading_ideal"), "s"),
        "hilbert.numerator_s": (total("hilbert.hilbert_numerator"), "s"),
        "hilbert.polynomial_s": (total("hilbert.hilbert_polynomial"), "s"),
        "hilbert.lead_mingens": (counts["hilbert.lead_mingens"], "count"),
        "resonance.os_points_s": (total("resonance.os_points"), "s"),
        "resonance.span_forms_s": (total("resonance.span_forms"), "s"),
        "resonance.decomposables_s": (total("resonance.decomposables_in_I2_bruteforce"), "s"),
        "resonance.decomp_candidates": (candidates, "count"),
        "resonance.decomp_hit_ratio": (ratio(counts["resonance.decomp_hits"], candidates), "ratio"),
        "field.kernel_basis_s": (total("field.kernel_basis"), "s"),
        "field.rank_s": (total("field.rank"), "s"),
        "field.rank_calls": (calls("field.rank"), "count"),
        "arrangement.load_s": (total("arrangement.load_arrangement"), "s"),
        "exterior.os_ideal_part_s": (total("exterior.os_ideal_part"), "s"),
        "exterior.os_ideal_part_calls": (calls("exterior.os_ideal_part"), "count"),
        "oracle.enumerate_r1_s": (total("oracle.enumerate_r1"), "s"),
        "oracle.points_scanned": (scanned, "count"),
        "oracle.resonant_ratio": (ratio(counts["oracle.resonant_points"], scanned), "ratio"),
        "oracle.aomoto_profile_s": (total("oracle.aomoto_profile"), "s"),
        "oracle.is_resonant_k_s": (total("oracle.is_resonant_k"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
