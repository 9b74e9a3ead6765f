"""Tests for the revenue-model abstraction (coverage + exact) and OPT."""
import numpy as np
import pytest

from repro.core.model import (
    CoverageRevenueModel,
    ExactRevenueModel,
    RMProblem,
    brute_force_opt,
)
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.rrset import from_memberships, generate_rr_local

from repro.core.rm_oracle import rm_with_oracle

from tests.helpers import BAD_INPUTS, random_coverage_problem


@pytest.mark.parametrize("seed", range(8))
def test_coverage_state_matches_stateless(seed):
    prob = random_coverage_problem(seed)
    model = prob.model
    g = np.random.default_rng(seed)
    state = model.state()
    sets = [set() for _ in range(prob.h)]
    for _ in range(10):
        u, i = int(g.integers(0, prob.n)), int(g.integers(0, prob.h))
        gain = state.gain(u, i)
        assert gain == pytest.approx(
            model.pi_of(i, sets[i] | {u}) - model.pi_of(i, sets[i])
        )
        state.add(u, i)
        sets[i].add(u)
        assert state.pi_i(i) == pytest.approx(model.pi_of(i, sets[i]))
    assert state.pi_total() == pytest.approx(model.pi_alloc(sets))


def _generated(seed, n_rr):
    n, h = 60, 3
    src, dst = powerlaw_edges(n, 300, seed=seed)
    probs = np.random.default_rng(seed).uniform(0.05, 0.4, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=False)
    return generate_rr_local(csr, [1.0, 1.5, 2.0], n_rr, seed=seed)


COLLECTIONS = {
    "from_memberships": lambda: random_coverage_problem(3, n=12, h=3, n_rr=90).model.rr,
    "generated": lambda: _generated(5, 700),
    "merged": lambda: _generated(6, 300).merge(_generated(7, 500)),
}


def _assert_gains_are_recounts(state, rr):
    """Every gain(u, i) equals a stateless recount of i's uncovered RR sets
    that contain u."""
    for i in range(rr.h):
        for u in range(rr.n):
            ids = rr.rr_ids_for(u, i)
            recount = float(np.count_nonzero(~state.covered[ids])) * rr.factor
            assert state.gain(u, i) == recount, (u, i)


@pytest.mark.parametrize("name", COLLECTIONS)
@pytest.mark.parametrize("seeded", [False, True], ids=["empty", "allocation"])
def test_incremental_gains_equal_recount(name, seeded):
    """The O(1) gain reads stay exact after any sequence of adds, from an
    empty state or from one seeded with an allocation (as Fill starts)."""
    rr = COLLECTIONS[name]()
    model = CoverageRevenueModel(rr)
    g = np.random.default_rng(11)
    alloc = [set() for _ in range(rr.h)]
    if seeded:
        for u in g.choice(rr.n, size=2 * rr.h, replace=False):
            alloc[int(g.integers(0, rr.h))].add(int(u))
    state = model.state(alloc if seeded else None)
    _assert_gains_are_recounts(state, rr)
    for _ in range(15):
        u, i = int(g.integers(0, rr.n)), int(g.integers(0, rr.h))
        state.add(u, i)
        alloc[i].add(u)
        _assert_gains_are_recounts(state, rr)
        assert state.gain(u, i) == 0.0
    for i in range(rr.h):
        assert state.pi_i(i) == model.pi_of(i, alloc[i])


@pytest.mark.parametrize("seed", range(8))
def test_coverage_monotone_submodular(seed):
    """π̃ is a coverage function: monotone and submodular by construction."""
    prob = random_coverage_problem(seed)
    model = prob.model
    g = np.random.default_rng(seed + 1000)
    for _ in range(10):
        i = int(g.integers(0, prob.h))
        small = set(int(x) for x in g.choice(prob.n, size=2, replace=False))
        big = small | {int(g.integers(0, prob.n))}
        u = int(g.integers(0, prob.n))
        assert model.pi_of(i, big) >= model.pi_of(i, small) - 1e-12
        gain_small = model.pi_of(i, small | {u}) - model.pi_of(i, small)
        gain_big = model.pi_of(i, big | {u}) - model.pi_of(i, big)
        assert gain_big <= gain_small + 1e-12


def test_state_from_allocation():
    prob = random_coverage_problem(0)
    alloc = [{0, 1}, {2}]
    state = prob.model.state(alloc)
    assert state.pi_i(0) == pytest.approx(prob.model.pi_of(0, {0, 1}))
    assert state.pi_i(1) == pytest.approx(prob.model.pi_of(1, {2}))


def test_exact_model_state_matches_stateless():
    src = np.array([0, 0, 1, 2])
    dst = np.array([1, 2, 3, 3])
    probs = np.array([[0.5, 0.3, 0.7, 0.4], [0.2, 0.6, 0.5, 0.8]])
    model = ExactRevenueModel(4, src, dst, probs, [1.0, 2.0])
    state = model.state()
    g0 = state.gain(0, 1)
    assert g0 == pytest.approx(model.pi_of(1, [0]))
    state.add(0, 1)
    g1 = state.gain(1, 1)
    assert g1 == pytest.approx(model.pi_of(1, [0, 1]) - model.pi_of(1, [0]))


def test_exact_model_cpe_scaling():
    src, dst = np.array([0]), np.array([1])
    probs = np.array([[0.5]])
    m1 = ExactRevenueModel(2, src, dst, probs, [1.0])
    m2 = ExactRevenueModel(2, src, dst, probs, [3.0])
    assert m2.pi_of(0, [0]) == pytest.approx(3 * m1.pi_of(0, [0]))
    assert m1.pi_of(0, [0]) == pytest.approx(1.5)  # 1 + 0.5


def test_rmproblem_feasibility():
    prob = random_coverage_problem(1)
    assert prob.is_feasible([set(), set()])
    # Overlapping allocations are infeasible (partition constraint).
    assert not prob.is_feasible([{0}, {0}])
    # Budget violation.
    big = [set(range(prob.n)), set()]
    if prob.cost_of(0, big[0]) + prob.model.pi_of(0, big[0]) > prob.budgets[0]:
        assert not prob.is_feasible(big)


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_opt_is_feasible_and_maximal_locally(seed):
    prob = random_coverage_problem(seed, n=5, h=2, n_rr=25)
    opt, alloc = brute_force_opt(prob)
    assert prob.is_feasible(alloc)
    assert opt == pytest.approx(prob.model.pi_alloc(alloc))
    # No single-node addition can stay feasible and improve (local check).
    for i in range(prob.h):
        for u in range(prob.n):
            if u in alloc[0] | alloc[1]:
                continue
            cand = [set(s) for s in alloc]
            cand[i].add(u)
            if prob.is_feasible(cand):
                assert prob.model.pi_alloc(cand) <= opt + 1e-9


def test_factor_formula():
    rr = from_memberships(10, 2, [1.0, 3.0], [(0, {1}), (1, {2})])
    model = CoverageRevenueModel(rr)
    # π̃_1({2}) = nΓ·1/|R| = 10·4/2 = 20.
    assert model.pi_of(1, {2}) == pytest.approx(20.0)
    assert model.pi_of(0, {1}) == pytest.approx(20.0)
    assert model.pi_of(0, {2}) == 0.0


@pytest.mark.parametrize("case", BAD_INPUTS, ids=lambda c: c[0])
def test_rmproblem_rejects_bad_inputs(case):
    _, edit, match = case
    prob = random_coverage_problem(0)
    costs, budgets, cpe = edit(prob.costs, prob.budgets, prob.cpe)
    prob.model.cpe = cpe
    with pytest.raises(ValueError, match=match):
        RMProblem(prob.model, costs, budgets)


def test_rmproblem_zero_budget_is_legal():
    prob = random_coverage_problem(0)
    prob = RMProblem(prob.model, prob.costs, [0.0, prob.budgets[1]])
    alloc = rm_with_oracle(prob, 0.1).allocation
    assert alloc[0] == set()
    assert prob.is_feasible(alloc)
