"""CELF lazy greedy (Leskovec et al., KDD 2007): the one selection engine.

Algorithms 1–3 and the CA/CS-Greedy and TI-CARM/TI-CSRM baselines all pop
elements (u, i) — node u for advertiser i — in decreasing order of a key:
the marginal gain π_i(u|S_i), or the marginal rate
ζ_i(u|S_i) = π_i(u|S_i)/(c_i(u)+π_i(u|S_i)). Gains only shrink as S_i grows
(submodularity) and ζ is increasing in the gain for a fixed cost, so a key
computed earlier is an upper bound on the current one. ``lazy_max`` therefore
re-evaluates only the heap head, and re-pushes it when its key went stale.
A stale head is re-pushed whenever any other entry is left, so elements come
out in exact (key desc, u, i) order, ties included.

An element whose node is used or whose advertiser is closed stays dead for
good, so it is dropped when it surfaces, before its gain is computed.
The loops differ only in what they do with the current maximum element.
"""
from __future__ import annotations

import heapq

import numpy as np

# Slack on every key and budget comparison.
EPS = 1e-12


def rate(gain, cost):
    """ζ = gain/(cost+gain) elementwise; 0 where cost+gain ≤ 0."""
    denom = cost + gain
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, gain / denom, 0.0)


def heap_of(keys: np.ndarray, advs: np.ndarray, nodes: np.ndarray) -> list:
    """A heap of ``(-key, u, i)`` entries, the layout ``lazy_max`` pops."""
    heap = list(zip((-keys).tolist(), nodes.tolist(), advs.tolist()))
    heapq.heapify(heap)
    return heap


def element_heap(prob, by_rate: bool, keep=None) -> list:
    """Line 1 of Algorithms 1–3: a heap of every element (u, i) with
    c_i(u) + π_i({u}) ≤ B_i, keyed by its singleton gain or rate.
    ``keep``, an (h, n) mask, restricts the elements considered."""
    sp = prob.model.singleton_pi()
    ok = prob.costs + sp <= prob.budgets[:, None] + EPS
    advs, nodes = np.nonzero(ok if keep is None else ok & keep)
    key = rate(sp, prob.costs) if by_rate else sp
    return heap_of(key[advs, nodes], advs, nodes)


def lazy_max(heap: list, gain, costs=None, used=(), closed=()):
    """Yield ``(u, i, g)``, g = ``gain(u, i)``, in decreasing key order.

    ``heap`` holds ``(-key, u, i)`` entries; the key is the gain, or the
    rate when ``costs`` (an (h, n) array) is given. Elements with ``u`` in
    ``used`` or ``i`` in ``closed`` are dropped unevaluated; the caller may
    grow both sets, and edit ``heap`` in place, between yields.
    """
    pop, replace = heapq.heappop, heapq.heapreplace
    cost = costs.tolist() if costs is not None else None
    while heap:
        negk, u, i = heap[0]
        if u in used or i in closed:
            pop(heap)
            continue
        g = gain(u, i)
        if cost is None:
            k = g
        else:
            d = cost[i][u] + g
            k = g / d if d > 0.0 else 0.0
        if k < -negk - EPS and len(heap) > 1:
            replace(heap, (-k, u, i))  # stale head: one sift, not pop + push
            continue
        pop(heap)
        yield u, i, g


class Seeds:
    """The allocation under construction: S_i, c_i(S_i) and π_i(S_i) per
    advertiser, and the nodes any S_j holds or has ruled out (``used``)."""

    def __init__(self, costs: np.ndarray, budgets: np.ndarray, sets=None, pi=None):
        h = len(budgets)
        self.costs, self.budgets = costs, budgets
        self.sets = sets if sets is not None else [set() for _ in range(h)]
        self.spend = [float(sum(costs[i, int(u)] for u in s)) for i, s in enumerate(self.sets)]
        self.pi = list(pi) if pi is not None else [0.0] * h
        self.used = set().union(*self.sets)

    def fits(self, u: int, i: int, g: float) -> bool:
        """c_i(S_i ∪ {u}) + π_i(S_i) + g ≤ B_i, where g = π_i(u | S_i)."""
        return self.spend[i] + self.costs[i, u] + self.pi[i] + g <= self.budgets[i] + EPS

    def add(self, u: int, i: int, g: float) -> None:
        self.sets[i].add(u)
        self.used.add(u)
        self.spend[i] += self.costs[i, u]
        self.pi[i] += g
