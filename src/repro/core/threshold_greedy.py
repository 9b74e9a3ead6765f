"""Algorithms 2–3: ThresholdGreedy(γ) and Fill (§3.2.1).

ThresholdGreedy pops elements (u, i) in decreasing marginal-*gain* order
(CA-style) but only keeps those whose marginal *rate* clears γ/B_i; the
first budget-overshooting node per advertiser is the stopple node D_i.
If exactly one advertiser depleted its budget, Algorithm 1 is re-run for it
over the unselected nodes (the A_i set of Theorem 3.2's b=1 case). Fill then
greedily tops up every advertiser by marginal rate. Both run on the CELF
engine in ``repro.core.celf``. An element whose rate falls below γ/B_i is
dropped for good: its rate can only shrink. So an element whose singleton
rate is already below γ/B_i never enters ThresholdGreedy's heap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.celf import EPS, Seeds, element_heap, lazy_max, rate
from repro.core.greedy import greedy
from repro.core.model import RMProblem


@dataclass
class TGResult:
    allocation: list  # S⃗* after Fill
    b: int  # number of budget-depleted advertisers |I|
    s_sets: list  # S_j from the main loop
    d_sets: list  # D_j stopple singletons
    a_sets: list  # A_j from the single-depleted-advertiser Greedy call
    pi_star: float  # π(S⃗*) under the problem's model


def threshold_greedy(prob: RMProblem, gamma: float) -> TGResult:
    """Run Algorithm 2 under threshold γ; returns the filled allocation."""
    h, costs, B = prob.h, prob.costs, prob.budgets
    state = prob.model.state()
    seeds = Seeds(costs, B)  # seeds.used: nodes in ∪_j S_j ∪ D_j
    d_sets = [set() for _ in range(h)]
    depleted: set[int] = set()  # I
    heap = element_heap(prob, by_rate=False, keep=_clears(prob, gamma))
    for u, i, g in lazy_max(heap, state.gain, used=seeds.used, closed=depleted):
        # (u, i) is the current max-gain element of M.
        d = costs[i, u] + g
        if gamma > 0.0 and (g / d if d > 0.0 else 0.0) < gamma / B[i] - EPS:
            continue  # Line 5: rate ζ below threshold — drop element
        if seeds.fits(u, i, g):
            state.add(u, i)
            seeds.add(u, i, g)
            continue
        d_sets[i] = {u}
        seeds.used.add(u)
        depleted.add(i)
        if len(depleted) == h:
            break
    s_sets = seeds.sets
    a_sets = [set() for _ in range(h)]
    if len(depleted) == 1:
        i = next(iter(depleted))
        all_s = set().union(*s_sets)
        cand = [v for v in range(prob.n) if v not in all_s]
        a_sets[i] = greedy(prob, cand, i).seeds
    # Line 11: per advertiser, the best of {S_j, D_j, A_j}.
    best = []
    for j in range(h):
        options = [s_sets[j], d_sets[j], a_sets[j]]
        vals = [prob.model.pi_of(j, o) for o in options]
        best.append(set(options[int(np.argmax(vals))]))
    filled = fill(prob, best)
    return TGResult(
        allocation=filled,
        b=len(depleted),
        s_sets=s_sets,
        d_sets=d_sets,
        a_sets=a_sets,
        pi_star=prob.model.pi_alloc(filled),
    )


def _clears(prob: RMProblem, gamma: float):
    """The (h, n) mask of elements whose singleton rate is not below γ/B_i
    (every element when γ = 0; none of advertiser i's when B_i = 0 < γ).
    It keeps every element Line 5 can keep: Line 5 tests the current rate,
    which is at most the singleton rate. The mask's slack is one EPS wider
    than Line 5's, so rounding cannot make the two disagree."""
    if gamma <= 0.0:
        return None
    B = prob.budgets
    thr = np.divide(gamma, B, out=np.full(len(B), np.inf), where=B > 0.0)
    zeta = rate(prob.model.singleton_pi(), prob.costs)
    return zeta >= thr[:, None] - 2.0 * EPS


def fill(prob: RMProblem, allocation) -> list:
    """Algorithm 3: greedily top up by marginal rate until budgets deplete."""
    sets = [set(s) for s in allocation]
    state = prob.model.state(sets)
    seeds = Seeds(prob.costs, prob.budgets, sets, [state.pi_i(i) for i in range(prob.h)])
    heap = element_heap(prob, by_rate=True)
    for u, i, g in lazy_max(heap, state.gain, prob.costs, used=seeds.used):
        if seeds.fits(u, i, g):
            state.add(u, i)
            seeds.add(u, i, g)
    return seeds.sets
