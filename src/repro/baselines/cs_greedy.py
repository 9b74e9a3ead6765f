"""Oracle versions of Aslay et al.'s greedy baselines (§2.2).

Both iterate over elements (u, i); CA-Greedy picks by maximum marginal
*gain* π_i(u|S_i), CS-Greedy by maximum marginal *rate* ζ_i(u|S_i). When
the chosen element would overshoot advertiser i's budget, that advertiser
is closed (this is what makes CA-Greedy "terminate with very few seeds"
under the super-linear cost model — the paper's footnote-8 behaviour).
Selection runs on the CELF engine in ``repro.core.celf``.
"""
from __future__ import annotations

from repro.core.celf import Seeds, element_heap, lazy_max
from repro.core.model import RMProblem


def _greedy_by_rule(prob: RMProblem, rule: str) -> list:
    assert rule in ("gain", "rate")
    by_rate = rule == "rate"
    state = prob.model.state()
    seeds = Seeds(prob.costs, prob.budgets)
    closed: set[int] = set()
    heap = element_heap(prob, by_rate)
    costs = prob.costs if by_rate else None
    for u, i, g in lazy_max(heap, state.gain, costs, used=seeds.used, closed=closed):
        if seeds.fits(u, i, g):
            state.add(u, i)
            seeds.add(u, i, g)
            continue
        closed.add(i)
        if len(closed) == prob.h:
            break
    return seeds.sets


def ca_greedy(prob: RMProblem) -> list:
    """Cost-Agnostic Greedy: select by marginal gain."""
    return _greedy_by_rule(prob, "gain")


def cs_greedy(prob: RMProblem) -> list:
    """Cost-Sensitive Greedy: select by marginal rate."""
    return _greedy_by_rule(prob, "rate")
