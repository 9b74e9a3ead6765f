"""Algorithm 1: Greedy(U, i) — single-advertiser 1/3-approximation (Thm 3.1).

Selects by maximum marginal *rate* ζ_i(v|S_i) = π_i(v|S_i)/(c_i(v)+π_i(v|S_i))
until the first node whose addition would overshoot B_i (the "stopple node",
kept in D_i); returns the better of S_i and D_i. Selection runs on the CELF
engine in ``repro.core.celf``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.celf import Seeds, element_heap, lazy_max
from repro.core.model import RMProblem


@dataclass
class GreedyResult:
    seeds: set  # S_i* — the better of S_i and D_i
    s_set: set
    d_set: set
    pi_star: float


def greedy(prob: RMProblem, candidates, i: int) -> GreedyResult:
    """Run Algorithm 1 for advertiser ``i`` over candidate nodes."""
    keep = np.zeros((prob.h, prob.n), dtype=bool)
    keep[i, [int(v) for v in candidates]] = True
    # Line 1: drop nodes that are infeasible on their own.
    heap = element_heap(prob, by_rate=True, keep=keep)
    state = prob.model.state()
    seeds = Seeds(prob.costs, prob.budgets)
    d_set: set[int] = set()
    for u, _, g in lazy_max(heap, state.gain, prob.costs):
        # u is the current max-rate element: select-or-stopple.
        if not seeds.fits(u, i, g):
            d_set = {u}
            break
        state.add(u, i)
        seeds.add(u, i, g)
    s_set, pi_s = seeds.sets[i], seeds.pi[i]
    pi_d = prob.model.pi_of(i, d_set) if d_set else 0.0
    if pi_d > pi_s:
        return GreedyResult(seeds=set(d_set), s_set=s_set, d_set=d_set, pi_star=pi_d)
    return GreedyResult(seeds=set(s_set), s_set=s_set, d_set=d_set, pi_star=pi_s)
