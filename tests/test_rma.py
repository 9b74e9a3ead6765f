"""End-to-end tests for Algorithm 6 (RM_without_Oracle / RMA)."""
import numpy as np
import pytest

from repro.core.model import CoverageRevenueModel, RMProblem, brute_force_opt
from repro.core.rm_oracle import approx_ratio
from repro.core.rma import rm_without_oracle
from repro.costs.incentives import seed_costs
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.evaluate import evaluate_revenue, singleton_spreads
from repro.influence.rrset import generate_rr_local

from tests.helpers import BAD_INPUTS


@pytest.fixture(scope="module")
def small_world():
    """A 150-node instance with a local RR generator and a big eval sample."""
    n, h = 150, 3
    src, dst = powerlaw_edges(n, 700, seed=31)
    g = np.random.default_rng(31)
    probs = g.uniform(0.02, 0.25, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=False)
    cpe = np.array([1.0, 1.5, 2.0])
    sig = singleton_spreads(generate_rr_local(csr, cpe, 30000, seed=32))
    costs = seed_costs(sig, 0.1, "linear")
    budgets = np.array([30.0, 45.0, 60.0])
    eval_rr = generate_rr_local(csr, cpe, 150000, seed=33)

    def gen(n_rr, seed):
        return generate_rr_local(csr, cpe, n_rr, seed=seed)

    return dict(
        n=n, h=h, csr=csr, cpe=cpe, costs=costs, budgets=budgets,
        eval_rr=eval_rr, gen=gen,
    )


@pytest.fixture(scope="module")
def rma_run(small_world):
    w = small_world
    return rm_without_oracle(
        w["gen"], w["costs"], w["budgets"], w["cpe"], w["n"],
        eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=400_000, seed=5,
    )


def test_rma_terminates_by_beta(rma_run):
    res = rma_run
    assert res.stopped_by in ("beta", "theta_max", "cap")
    assert res.rounds >= 1
    assert res.n_rr_r1 == res.n_rr_r2


def test_rma_beta_meets_target(rma_run):
    """When stopping by β, β ≥ λ−ε held at stop time."""
    res = rma_run
    lam = res.diagnostics["lambda"]
    if res.stopped_by == "beta":
        assert res.beta >= lam - 0.1 - 1e-9
        assert res.feasible


def test_rma_bicriteria_budget(small_world, rma_run):
    """c_i(S_i*) + π_i(S_i*) ≤ (1+ϱ)B_i against the independent eval sample
    (allowing eval sampling noise)."""
    w, res = small_world, rma_run
    _, per = evaluate_revenue(w["eval_rr"], res.allocation)
    for i in range(w["h"]):
        c = sum(w["costs"][i, u] for u in res.allocation[i])
        assert c + per[i] <= 1.2 * w["budgets"][i] * 1.05 + 1e-9


def test_rma_disjoint_allocation(rma_run):
    seen = set()
    for s in rma_run.allocation:
        assert not (seen & s)
        seen |= s


def test_rma_deterministic(small_world):
    w = small_world
    kw = dict(eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=400_000, seed=5)
    a = rm_without_oracle(w["gen"], w["costs"], w["budgets"], w["cpe"], w["n"], **kw)
    b = rm_without_oracle(w["gen"], w["costs"], w["budgets"], w["cpe"], w["n"], **kw)
    assert a.allocation == b.allocation
    assert a.beta == b.beta


def test_rma_cap_path(small_world):
    """A tiny rr_cap forces the non-β stopping paths to exercise."""
    w = small_world
    res = rm_without_oracle(
        w["gen"], w["costs"], w["budgets"], w["cpe"], w["n"],
        eps=0.001, rho=0.05, sample_scale=1.0, rr_cap=256, seed=6,
    )
    assert res.stopped_by in ("theta_max", "cap")
    assert res.n_rr_r1 <= 512


def test_rma_revenue_vs_sampled_opt(small_world, rma_run):
    """π(S⃗*) ≥ (λ−ε)·OPT with OPT estimated from the eval sample via the
    (loose) certified upper bound z — a consistency check, not the proof."""
    res = rma_run
    assert res.pi_est_r1 > 0
    assert res.beta > 0


def test_rma_tiny_instance_ratio():
    """On a brute-forceable instance, RMA's λ−ε guarantee holds against
    the true OPT of its own final sampling space."""
    n, h = 8, 2
    src, dst = powerlaw_edges(n, 20, seed=41)
    g = np.random.default_rng(41)
    probs = g.uniform(0.2, 0.6, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=False)
    cpe = np.array([1.0, 1.0])
    costs = np.full((h, n), 0.5)
    budgets = np.array([6.0, 6.0])

    def gen(n_rr, seed):
        return generate_rr_local(csr, cpe, n_rr, seed=seed)

    res = rm_without_oracle(
        gen, costs, budgets, cpe, n, eps=0.1, rho=0.3, sample_scale=1.0,
        rr_cap=200_000, seed=7,
    )
    big = generate_rr_local(csr, cpe, 100_000, seed=99)
    prob = RMProblem(CoverageRevenueModel(big), costs, (1 + 0.3) * budgets)
    opt, _ = brute_force_opt(prob)
    rev, _ = evaluate_revenue(big, res.allocation)
    lam = approx_ratio(h, 0.1)
    assert rev >= (lam - 0.1) * opt * 0.9  # 0.9: eval sampling slack


@pytest.mark.parametrize("case", BAD_INPUTS, ids=lambda c: c[0])
def test_rma_rejects_bad_inputs_before_sampling(case):
    _, edit, match = case
    n = 5
    costs, budgets, cpe = edit(np.ones((2, n)), np.array([3.0, 4.0]), np.array([1.0, 1.5]))
    calls = []

    def gen(n_rr, seed):
        calls.append(n_rr)
        raise AssertionError("RR sets generated before input validation")

    with pytest.raises(ValueError, match=match):
        rm_without_oracle(gen, costs, budgets, cpe, n)
    assert calls == []


def test_rma_zero_budget_advertiser(small_world):
    """A zero budget is left out of B_min: RMA runs, gives that advertiser
    nothing (every node has a positive cost) and seeds the others."""
    w = small_world
    budgets = w["budgets"].copy()
    budgets[1] = 0.0
    res = rm_without_oracle(
        w["gen"], w["costs"], budgets, w["cpe"], w["n"],
        eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=20_000, seed=5,
    )
    assert res.rounds >= 1
    assert res.allocation[1] == set()
    assert res.allocation[0] and res.allocation[2]
    _, per = evaluate_revenue(w["eval_rr"], res.allocation)
    for i in (0, 2):
        c = sum(w["costs"][i, u] for u in res.allocation[i])
        assert c + per[i] <= 1.2 * budgets[i] * 1.05 + 1e-9


def test_rma_all_zero_budgets_returns_empty_allocation():
    calls = []

    def gen(n_rr, seed):
        calls.append(n_rr)
        raise AssertionError("no RR set is needed when no advertiser can spend")

    res = rm_without_oracle(gen, np.ones((2, 5)), np.zeros(2), np.array([1.0, 1.5]), 5)
    assert res.allocation == [set(), set()]
    assert res.stopped_by == "zero_budgets"
    assert (res.rounds, res.n_rr_total, res.pi_est_r1) == (0, 0, 0.0)
    assert calls == []
