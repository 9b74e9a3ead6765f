"""Shared test utilities: random coverage instances + reference algorithms.

The reference implementations are deliberately naive O(n²·h) re-statements
of the paper's pseudocode (no CELF, no incremental state); equivalence
tests pin the optimised implementations to them.
"""
from __future__ import annotations

import numpy as np

from repro.core.model import CoverageRevenueModel, RMProblem
from repro.influence.rrset import from_memberships


def random_coverage_problem(
    seed: int,
    *,
    n: int = 7,
    h: int = 2,
    n_rr: int = 40,
    max_rr_size: int = 3,
    budget_range=(2.0, 8.0),
    cost_range=(0.2, 2.0),
):
    """A small random RM instance whose model is an exact coverage oracle."""
    g = np.random.default_rng(seed)
    cpe = g.uniform(0.5, 2.0, size=h)
    memberships = []
    for _ in range(n_rr):
        adv = int(g.integers(0, h))
        size = int(g.integers(1, max_rr_size + 1))
        nodes = set(int(x) for x in g.choice(n, size=size, replace=False))
        memberships.append((adv, nodes))
    rr = from_memberships(n, h, cpe, memberships)
    model = CoverageRevenueModel(rr)
    costs = g.uniform(*cost_range, size=(h, n))
    budgets = g.uniform(*budget_range, size=h)
    return RMProblem(model, costs, budgets)


def _with(a, idx, v):
    a = np.array(a, dtype=np.float64)
    a[idx] = v
    return a


# One case per input check at the API boundary: (id, edit of valid
# (costs, budgets, cpe), pattern of the ValueError message).
BAD_INPUTS = [
    ("costs_shape", lambda c, b, p: (c[:, :-1], b, p), "costs must have shape"),
    ("budgets_shape", lambda c, b, p: (c, b[:-1], p), "budgets must have shape"),
    ("negative_cost", lambda c, b, p: (_with(c, (0, 1), -0.5), b, p), "costs must be"),
    ("nan_cost", lambda c, b, p: (_with(c, (1, 0), np.nan), b, p), "costs must be"),
    ("negative_budget", lambda c, b, p: (c, _with(b, 0, -1.0), p), "budgets must be"),
    ("inf_budget", lambda c, b, p: (c, _with(b, 1, np.inf), p), "budgets must be"),
    ("zero_cpe", lambda c, b, p: (c, b, _with(p, 1, 0.0)), "cpe must be"),
    ("negative_cpe", lambda c, b, p: (c, b, _with(p, 0, -1.0)), "cpe must be"),
]


def naive_greedy(prob: RMProblem, candidates, i: int):
    """Reference Algorithm 1 — literal pseudocode, no laziness."""
    model, costs, B = prob.model, prob.costs, float(prob.budgets[i])
    sp = model.singleton_pi()
    U = [int(v) for v in candidates if costs[i, v] + sp[i, v] <= B + 1e-12]
    S: set[int] = set()
    D: set[int] = set()
    while U and not D:
        best_u, best_r, best_g = None, -1.0, 0.0
        for v in U:
            g = model.pi_of(i, S | {v}) - model.pi_of(i, S)
            r = g / (costs[i, v] + g) if costs[i, v] + g > 0 else 0.0
            if r > best_r + 1e-12:
                best_u, best_r, best_g = v, r, g
        U.remove(best_u)
        if prob.cost_of(i, S | {best_u}) + model.pi_of(i, S | {best_u}) <= B + 1e-12:
            S = S | {best_u}
        else:
            D = {best_u}
    pi_s, pi_d = model.pi_of(i, S), model.pi_of(i, D)
    return (D, S, D) if pi_d > pi_s else (S, S, D)


def naive_threshold_greedy_main_loop(prob: RMProblem, gamma: float):
    """Reference main loop of Algorithm 2 (lines 1–8), literal pseudocode.

    Returns (S⃗, D⃗, I) before the Greedy/Fill post-processing, which is
    where the CELF subtleties live.
    """
    model, costs, B = prob.model, prob.costs, prob.budgets
    h, n = prob.h, prob.n
    sp = model.singleton_pi()
    M = [
        (v, j)
        for j in range(h)
        for v in range(n)
        if costs[j, v] + sp[j, v] <= B[j] + 1e-12
    ]
    S = [set() for _ in range(h)]
    D = [set() for _ in range(h)]
    I: set[int] = set()
    while M and len(I) < h:
        best, best_g = None, -1.0
        for v, j in M:
            g = model.pi_of(j, S[j] | {v}) - model.pi_of(j, S[j])
            if g > best_g + 1e-12:
                best, best_g = (v, j), g
        u, i = best
        M.remove(best)
        g = model.pi_of(i, S[i] | D[i] | {u}) - model.pi_of(i, S[i] | D[i])
        r = g / (costs[i, u] + g) if costs[i, u] + g > 0 else 0.0
        if (gamma > 0 and r < gamma / B[i] - 1e-12) or D[i]:
            continue
        used = set().union(*S, *D)
        if u in used:
            continue
        if prob.cost_of(i, S[i] | {u}) + model.pi_of(i, S[i] | {u}) <= B[i] + 1e-12:
            S[i].add(u)
        else:
            D[i] = {u}
            I.add(i)
    return S, D, I


def line1_elements(prob: RMProblem):
    """Line 1: every element (u, i) with c_i(u) + π_i({u}) ≤ B_i."""
    sp = prob.model.singleton_pi()
    return [
        (u, i)
        for i in range(prob.h)
        for u in range(prob.n)
        if prob.costs[i, u] + sp[i, u] <= prob.budgets[i] + 1e-12
    ]


def _naive_pick(prob: RMProblem, S, live, by_rate: bool):
    """The live element of maximum key, re-evaluated from a fresh state;
    ties go to the smaller node, then the smaller advertiser."""
    state = prob.model.state(S)

    def key(e):
        u, i = e
        g = state.gain(u, i)
        if not by_rate:
            return g
        c = prob.costs[i, u]
        return g / (c + g) if c + g > 0 else 0.0

    return min(live, key=lambda e: (-key(e), e[0], e[1]))


def _fits(prob: RMProblem, S, u: int, i: int) -> bool:
    T = S[i] | {u}
    return prob.cost_of(i, T) + prob.model.pi_of(i, T) <= prob.budgets[i] + 1e-12


def naive_fill(prob: RMProblem, allocation):
    """Reference Algorithm 3 — no laziness: each step takes the max-rate
    element over all live ones; one that does not fit is discarded."""
    S = [set(s) for s in allocation]
    M = line1_elements(prob)
    while True:
        used = set().union(*S)
        live = [(u, i) for u, i in M if u not in used]
        if not live:
            return S
        u, i = _naive_pick(prob, S, live, by_rate=True)
        M.remove((u, i))
        if _fits(prob, S, u, i):
            S[i].add(u)


def naive_budget_greedy(prob: RMProblem, rule: str):
    """Reference CA-Greedy (rule="gain") / CS-Greedy (rule="rate") — no
    laziness: the first element that does not fit closes its advertiser."""
    S = [set() for _ in range(prob.h)]
    M = line1_elements(prob)
    closed: set[int] = set()
    while True:
        used = set().union(*S)
        live = [(u, i) for u, i in M if u not in used and i not in closed]
        if not live:
            return S
        u, i = _naive_pick(prob, S, live, by_rate=rule == "rate")
        M.remove((u, i))
        if _fits(prob, S, u, i):
            S[i].add(u)
        else:
            closed.add(i)
