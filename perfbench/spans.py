"""In-memory span tracer that instruments ``repro`` from the outside.

The tracer never edits ``src/``: ``install`` replaces module attributes
(and a few class methods) with wrappers that open a span around the call,
and ``uninstall`` puts the originals back. A function imported by name into
other ``repro`` modules (``from repro.core.greedy import greedy``) is bound
in each of them, so every ``repro.*`` module holding the same object is
patched, not just the defining one.

A span is ``(id, parent, name, op, t0, t1, counts)``. ``op`` is the id of
the benchmark operation the span belongs to; ``counts`` holds work counts
read from the call's result (RR sets, members, rounds, ...). Spans stay in a
list until the run ends. Self time is duration minus the durations of the
direct children: the driver is single-threaded, so children never overlap.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np


def _rr_counts(rr) -> dict:
    return {"sets": rr.n_rr, "members": len(rr.exploded)}


def _rma_counts(res) -> dict:
    return {
        "rounds": res.rounds,
        "rr_sets": res.n_rr_total,
        f"stopped_by.{res.stopped_by}": 1,
    }


def _ti_counts(res) -> dict:
    return {"regenerations": res.regenerations, "rr_sets": res.n_rr_total}


def _search_counts(res) -> dict:
    return {"iterations": res.n_iterations}


# (module, attribute, span name, counts-from-result). Several functions may
# share one span name when together they form one layer.
SPANNED = [
    ("repro.graphs.generators", "powerlaw_edges", "graphs.generators.powerlaw_edges", None),
    ("repro.graphs.generators", "edges_to_spark", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "tic_topic_entries", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "ad_mixtures", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "tic_probs_spark", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "collect_edge_adv_probs", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "wc_probs_spark", "graphs.tic.edge_probs", None),
    ("repro.graphs.tic", "collect_edge_probs", "graphs.tic.edge_probs", None),
    ("repro.graphs.csr", "build_csr", "graphs.csr.build_csr", None),
    ("repro.influence.evaluate", "singleton_spreads", "influence.evaluate.singleton_spreads", None),
    ("repro.costs.incentives", "seed_costs", "costs.incentives.seed_costs", None),
    ("repro.experiments.instances", "build_instance", "experiments.instances.build_instance", None),
    ("repro.influence.rrset", "generate_rr_collection", "influence.rrset.generate_spark", _rr_counts),
    ("repro.influence.rrset", "generate_rr_local", "influence.rrset.generate_local", _rr_counts),
    ("repro.influence.rrset", "RRCollection.merge", "influence.rrset.merge", None),
    ("repro.core.rma", "rm_without_oracle", "core.rma.rm_without_oracle", _rma_counts),
    ("repro.core.rm_oracle", "rm_with_oracle", "core.rm_oracle.rm_with_oracle", None),
    ("repro.core.search", "search", "core.search.search", _search_counts),
    ("repro.core.threshold_greedy", "threshold_greedy", "core.threshold_greedy.threshold_greedy", None),
    ("repro.core.threshold_greedy", "fill", "core.threshold_greedy.fill", None),
    ("repro.core.greedy", "greedy", "core.greedy.greedy", None),
    ("repro.core.seekub", "seek_ub", "core.seekub.seek_ub", None),
    ("repro.baselines.tim", "kpt_estimation", "baselines.tim.kpt_estimation", None),
    ("repro.baselines.ti_carm", "ti_rm", "baselines.ti_carm.ti_rm", _ti_counts),
    ("repro.influence.evaluate", "evaluate_revenue", "influence.evaluate.evaluate_revenue", None),
]

# Methods called hundreds of thousands of times per run: counted, not spanned,
# so the wrapper costs one increment instead of two clock reads.
COUNTED = [
    ("repro.core.model", "_CoverageState.gain", "core.model.gain"),
    ("repro.core.model", "_CoverageState.add", "core.model.add"),
]

# Span names whose results are RR collections, checked after every call.
RR_GENERATORS = ("influence.rrset.generate_spark", "influence.rrset.generate_local")
CHECK_SPAN = "bench.check"


class Tracer:
    """Records spans and call counts; ``install`` puts the wrappers in place."""

    def __init__(self, check_rr: Callable | None = None):
        # check_rr(rr, n_rr) -> list of problems; run on every generated
        # collection inside a CHECK_SPAN child so it is not charged to the
        # generator's self time.
        self.check_rr = check_rr
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.problems: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """A span around the body; ``op`` starts a new operation id."""
        prev_op = self._op
        if op is not None:
            self._op = op
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(sid)
        counts: dict = {}
        t0 = time.perf_counter()
        try:
            yield counts
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self._op, t0, t1, counts)
            self._op = prev_op

    def _wrap_call(self, name: str, fn: Callable, count_fn: Callable | None):
        tracer = self
        check = self.check_rr if name in RR_GENERATORS else None
        sig = inspect.signature(fn) if check else None

        def wrapper(*args, **kw):
            with tracer.span(name) as counts:
                res = fn(*args, **kw)
                if count_fn is not None:
                    counts.update(count_fn(res))
                if check is not None:
                    with tracer.span(CHECK_SPAN):
                        n_rr = sig.bind(*args, **kw).arguments["n_rr"]
                        for p in check(res, n_rr):
                            tracer.problems[tracer._op].append(f"{name}: {p}")
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, name: str, fn: Callable):
        tracer = self

        def wrapper(*args, **kw):
            tracer.counts[tracer._op][name] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        mod = sys.modules[module]
        if "." in attr:  # Class.method
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._patched.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(m, attr, None) is orig:
                setattr(m, attr, new)
                self._patched.append((m, attr, orig))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, name, count_fn in SPANNED:
            __import__(module)
            self._patch(module, attr, lambda f, n=name, c=count_fn: self._wrap_call(n, f, c))
        for module, attr, name in COUNTED:
            __import__(module)
            self._patch(module, attr, lambda f, n=name: self._wrap_count(n, f))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patched):
            setattr(target, attr, orig)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived views -----------------------------------------------------

    def self_times(self) -> list[tuple]:
        """``(span, self_s)`` per span: duration minus direct children."""
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        return [(s, (s[5] - s[4]) - child[s[0]]) for s in self.spans]

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        if not self.spans:
            return []
        base = self.spans[0][4]
        return [
            dict(id=s[0], parent=s[1], name=s[2], op=s[3],
                 start=s[4] - base, end=s[5] - base, self_s=st, **s[6])
            for s, st in self.self_times()
        ]
