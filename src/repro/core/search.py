"""Algorithm 4: Search(τ, b_min) — binary search for a good threshold γ.

Maintains [γ₁, γ₂] with ThresholdGreedy(γ₁) depleting ≥ b_min budgets and
ThresholdGreedy(γ₂) depleting fewer; halves the interval until
(1+τ)γ₁ ≥ γ₂ or γ₂ ≤ min_i cpe(i)/(h+6), and returns the best allocation
seen plus both endpoint runs (SeekUB consumes the endpoints in §4.4).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.celf import rate
from repro.core.model import RMProblem
from repro.core.threshold_greedy import TGResult, threshold_greedy


def gamma_max(prob: RMProblem) -> float:
    """Eqn (6): γ_max = max{B_j · ζ_j(v|∅) : v ∈ V, j ∈ [h]}."""
    zeta = rate(prob.model.singleton_pi(), prob.costs)
    return float((prob.budgets[:, None] * zeta).max())


@dataclass
class SearchResult:
    allocation: list  # S⃗* — best over all tested thresholds
    pi_star: float
    t1: TGResult | None  # ThresholdGreedy(γ₁) with b₁ ≥ b_min
    gamma1: float
    t2: TGResult | None  # ThresholdGreedy(γ₂) with b₂ < b_min
    gamma2: float
    b_min: int
    n_iterations: int


def search(prob: RMProblem, tau: float, b_min: int) -> SearchResult:
    """Run Algorithm 4."""
    assert b_min in (1, 2)
    h = prob.h
    g2 = (1.0 + tau) * gamma_max(prob)
    g1 = 0.0
    gamma = g1
    t1: TGResult | None = None
    t2: TGResult | None = None
    best: TGResult | None = None
    stop_floor = float(prob.cpe.min()) / (h + 6)
    iters = 0
    while True:
        iters += 1
        res = threshold_greedy(prob, gamma)
        if best is None or res.pi_star > best.pi_star:
            best = res
        if res.b >= b_min:
            t1, g1 = res, gamma
        else:
            t2, g2 = res, gamma
        gamma = (g1 + g2) / 2.0
        if (1.0 + tau) * g1 >= g2 or g2 <= stop_floor:
            break
    return SearchResult(
        allocation=best.allocation,
        pi_star=best.pi_star,
        t1=t1,
        gamma1=g1,
        t2=t2,
        gamma2=g2,
        b_min=b_min,
        n_iterations=iters,
    )
