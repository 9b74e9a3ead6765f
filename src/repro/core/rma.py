"""Algorithm 6: RM_without_Oracle — the paper's main algorithm ("RMA").

Progressive sampling in the OPIM-C style: start from two small RR
collections R₁/R₂ of size θ₀, solve on R₁ with RM_with_Oracle under the
inflated budgets (1+ϱ/2)B_i, validate on R₂ (budget feasibility via
Lemma B.7 upper bounds; quality via β = LB(S⃗*)/UB(O⃗) with SeekUB feeding
UB(O⃗)), and double both collections until β ≥ λ−ε and the solution is
feasible, or |R₁| reaches θ_max.

Guarantee (Theorem 4.3): with probability ≥ 1−δ the output satisfies
c_i(S_i*) + π_i(S_i*) ≤ (1+ϱ)B_i for all i and π(S⃗*) ≥ (λ−ε)·OPT.

``sample_scale`` scales θ₀/θ_max uniformly (DESIGN.md § Substitutions);
``rr_cap`` is a hard safety cap on collection sizes. Both default to the
faithful values (1.0 / None).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.bounds import (
    lb_mean,
    mu_per_advertiser,
    theta_bar_max,
    theta_hat_max,
    theta_zero,
    ub_mean,
)
from repro.core.model import CoverageRevenueModel, RMProblem, check_inputs
from repro.core.rm_oracle import approx_ratio, rm_with_oracle
from repro.core.seekub import seek_ub
from repro.influence.rrset import RRCollection


@dataclass
class RMAResult:
    allocation: list
    pi_est_r1: float  # π̃(S⃗*, R₁)
    beta: float  # final LB(S⃗*)/UB(O⃗)
    feasible: bool  # R₂ budget check at stop time
    rounds: int
    n_rr_r1: int
    n_rr_r2: int
    theta_max: float
    stopped_by: str  # "beta" | "theta_max" | "cap" | "zero_budgets"
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_rr_total(self) -> int:
        return self.n_rr_r1 + self.n_rr_r2


def rm_without_oracle(
    rr_gen: Callable[[int, int], RRCollection],
    costs: np.ndarray,
    budgets: np.ndarray,
    cpe: np.ndarray,
    n: int,
    *,
    eps: float = 0.02,
    delta: float | None = None,
    tau: float = 0.1,
    rho: float = 0.1,
    sample_scale: float = 1.0,
    rr_cap: int | None = None,
    seed: int = 7,
    bias_check: bool = True,
    bias_threshold: float = 0.8,
    bias_factor: int = 4,
) -> RMAResult:
    """Run RMA. ``rr_gen(n_rr, seed)`` produces a fresh RR collection.

    ``bias_check`` enables the §4.4 extension: before returning, if the
    holdout estimate π̃(S⃗*, R₂) is below ``bias_threshold``·π̃(S⃗*, R₁)
    (the solution overfits R₁), enlarge both collections by
    ``bias_factor``× and re-solve. This does not affect the theoretical
    guarantee and improves empirical revenue on small samples.
    """
    costs = np.asarray(costs, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    cpe = np.asarray(cpe, dtype=np.float64)
    check_inputs(costs, budgets, cpe, n)
    h = len(budgets)
    if delta is None:
        delta = 1.0 / n
    lam = approx_ratio(h, tau)
    delta_p = delta / 4.0

    if not (budgets > 0).any():
        # Every feasible allocation is empty: nothing to sample or select.
        return RMAResult(
            allocation=[set() for _ in range(h)], pi_est_r1=0.0, beta=0.0,
            feasible=True, rounds=0, n_rr_r1=0, n_rr_r2=0, theta_max=0.0,
            stopped_by="zero_budgets",
        )
    gamma = float(cpe.sum())
    # θ̄_max and θ₀ bound the budget error of advertisers that can spend.
    b_min = float(budgets[budgets > 0].min())
    mu = mu_per_advertiser(costs, budgets, rho)
    theta_max = max(
        theta_hat_max(n, eps, delta_p, lam, mu),
        theta_bar_max(n, gamma, rho, b_min, delta_p, h, int(mu.max())),
    )
    theta0 = theta_zero(n, gamma, rho, b_min, delta_p, h)
    theta_max *= sample_scale
    theta0 *= sample_scale
    if rr_cap is not None:
        theta_max = min(theta_max, float(rr_cap))
    theta0 = max(64.0, min(theta0, theta_max))
    t_max = max(1, math.ceil(math.log2(max(theta_max / theta0, 2.0))))
    q = math.log((h + 2) * t_max / delta_p)

    n_gamma = n * gamma
    r1 = rr_gen(int(theta0), seed * 1_000_003 + 1)
    r2 = rr_gen(int(theta0), seed * 1_000_003 + 2)
    rounds = 0
    while True:
        rounds += 1
        model1 = CoverageRevenueModel(r1)
        prob1 = RMProblem(model1, costs, (1.0 + rho / 2.0) * budgets)
        res = rm_with_oracle(prob1, tau)
        alloc = res.allocation
        z = seek_ub(res, lam, h)

        model2 = CoverageRevenueModel(r2)
        feasible = True
        for i in range(h):
            pi2_i = model2.pi_of(i, alloc[i])
            ub_i = ub_mean(pi2_i, r2.n_rr, n_gamma, q)
            c_i = float(sum(costs[i, int(u)] for u in alloc[i]))
            if ub_i > (1.0 + rho) * budgets[i] - c_i + 1e-9:
                feasible = False
                break
        pi2_total = model2.pi_alloc(alloc)
        lb_s = lb_mean(pi2_total, r2.n_rr, n_gamma, q)
        ub_o = ub_mean(z, r1.n_rr, n_gamma, q)
        beta = lb_s / ub_o if ub_o > 0 else 0.0

        if beta >= lam - eps and feasible:
            stopped = "beta"
        elif r1.n_rr >= theta_max:
            stopped = "theta_max"
        elif rr_cap is not None and r1.n_rr * 2 > rr_cap:
            stopped = "cap"
        else:
            r1 = r1.merge(rr_gen(r1.n_rr, seed * 1_000_003 + 100 + 2 * rounds))
            r2 = r2.merge(rr_gen(r2.n_rr, seed * 1_000_003 + 101 + 2 * rounds))
            continue
        # §4.4 extension: detect overfitting to R₁ via the holdout ratio and
        # re-solve on enlarged collections if the solution does not
        # generalise. At most a few enlargements, bounded by rr_cap.
        if (
            bias_check
            and res.pi_star > 0
            and pi2_total < bias_threshold * res.pi_star
            and (rr_cap is None or r1.n_rr * bias_factor <= rr_cap)
            and r1.n_rr * bias_factor <= max(theta_max, r1.n_rr)
        ):
            extra = r1.n_rr * (bias_factor - 1)
            r1 = r1.merge(rr_gen(extra, seed * 1_000_003 + 500 + 2 * rounds))
            r2 = r2.merge(rr_gen(extra, seed * 1_000_003 + 501 + 2 * rounds))
            continue
        return RMAResult(
            allocation=alloc,
            pi_est_r1=res.pi_star,
            beta=beta,
            feasible=feasible,
            rounds=rounds,
            n_rr_r1=r1.n_rr,
            n_rr_r2=r2.n_rr,
            theta_max=theta_max,
            stopped_by=stopped,
            diagnostics={
                "lambda": lam,
                "z": z,
                "lb_s": lb_s,
                "ub_o": ub_o,
                "q": q,
                "t_max": t_max,
                "theta0": theta0,
            },
        )
