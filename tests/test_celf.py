"""Tests for the CELF engine and the loops built on it, against naive
non-lazy references (tests/helpers.py)."""
import heapq

import numpy as np
import pytest

from repro.baselines.cs_greedy import ca_greedy, cs_greedy
from repro.core.celf import element_heap, lazy_max
from repro.core.model import RMProblem
from repro.core.search import gamma_max
from repro.core.threshold_greedy import fill, threshold_greedy

from tests.helpers import (
    line1_elements,
    naive_budget_greedy,
    naive_fill,
    naive_threshold_greedy,
    random_coverage_problem,
)

SEEDS = range(24)


def _problem(seed):
    # Budgets loose enough that most advertisers take several seeds.
    if seed % 2:
        return random_coverage_problem(
            seed, n=14, h=3, n_rr=80, max_rr_size=4, budget_range=(5.0, 20.0),
            cost_range=(0.1, 1.5),
        )
    return random_coverage_problem(seed, n=9, h=2, n_rr=40, budget_range=(4.0, 12.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_fill_matches_naive(seed):
    prob = _problem(seed)
    g = np.random.default_rng(seed)
    start = [set() for _ in range(prob.h)]
    for u in g.choice(prob.n, size=prob.h, replace=False):
        start[int(g.integers(0, prob.h))].add(int(u))
    for alloc in ([set() for _ in range(prob.h)], start):
        assert fill(prob, alloc) == naive_fill(prob, alloc)


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_greedy_matches_naive(seed):
    """The pruned heap changes no TGResult field, at γ = 0, across the
    range, and just below γ_max."""
    prob = _problem(seed)
    top = gamma_max(prob)
    for gamma in (0.0, 0.05 * top, 0.3 * top, 0.7 * top, 0.99 * top):
        assert threshold_greedy(prob, gamma) == naive_threshold_greedy(prob, gamma)


@pytest.mark.parametrize("seed", range(6))
def test_threshold_greedy_zero_budget_matches_naive(seed):
    """Advertiser 0 has B_0 = 0 and free nodes outside its RR sets, so only
    γ = 0 lets it take them; pruning and Line 5 never divide by B_0."""
    base = random_coverage_problem(
        seed, n=16, h=3, n_rr=30, max_rr_size=2, budget_range=(5.0, 20.0),
        cost_range=(0.1, 1.5),
    )
    costs = base.costs.copy()
    free = base.model.singleton_pi()[0] == 0.0
    assert free.any()
    costs[0, free] = 0.0
    prob = RMProblem(base.model, costs, np.concatenate([[0.0], base.budgets[1:]]))
    top = gamma_max(prob)
    for gamma in (0.0, 0.3 * top, 0.99 * top):
        res = threshold_greedy(prob, gamma)
        assert res == naive_threshold_greedy(prob, gamma)
        assert (res.s_sets[0] == set()) == (gamma > 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algo,rule", [(ca_greedy, "gain"), (cs_greedy, "rate")])
def test_budget_greedy_matches_naive(seed, algo, rule):
    prob = _problem(seed)
    assert algo(prob) == naive_budget_greedy(prob, rule)


def test_lazy_max_exact_order_with_ties():
    """Fresh keys below the stale ones: elements come out in exact
    (key desc, u, i) order, ties included."""
    fresh = {(0, 0): 1.0, (1, 0): 3.0, (2, 1): 3.0, (3, 1): 0.5, (1, 1): 3.0}
    heap = [(-9.0, u, i) for (u, i) in fresh]
    heapq.heapify(heap)
    out = list(lazy_max(heap, lambda u, i: fresh[u, i]))
    assert [(u, i) for u, i, _ in out] == [(1, 0), (1, 1), (2, 1), (0, 0), (3, 1)]
    assert [g for _, _, g in out] == [3.0, 3.0, 3.0, 1.0, 0.5]


def test_lazy_max_drops_dead_elements_unevaluated():
    heap = [(-1.0, u, i) for u in range(4) for i in range(2)]
    heapq.heapify(heap)
    used, closed, evaluated = {2}, set(), []

    def gain(u, i):
        evaluated.append((u, i))
        return 1.0

    for u, i, _ in lazy_max(heap, gain, used=used, closed=closed):
        if u == 0:
            closed.add(1)  # grown between yields: (0, 1), (1, 1), ... die
        used.add(u)
    assert evaluated == [(0, 0), (1, 0), (3, 0)]


def test_lazy_max_rate_key():
    """With ``costs`` the key is ζ = g/(c+g); a zero denominator gives 0."""
    costs = np.array([[1.0, 3.0, 0.0]])
    gains = [1.0, 1.0, 0.0]
    heap = [(-1.0, u, 0) for u in range(3)]
    heapq.heapify(heap)
    out = [u for u, _, _ in lazy_max(heap, lambda u, i: gains[u], costs)]
    assert out == [0, 1, 2]  # ζ = 0.5, 0.25, 0


def test_element_heap_is_line1():
    prob = random_coverage_problem(3, n=10, h=3, n_rr=50)
    sp = prob.model.singleton_pi()
    expect = set(line1_elements(prob))
    for by_rate in (False, True):
        heap = element_heap(prob, by_rate)
        assert {(u, i) for _, u, i in heap} == expect
        for negk, u, i in heap:
            g, c = sp[i, u], prob.costs[i, u]
            assert -negk == (g / (c + g) if by_rate else g)
