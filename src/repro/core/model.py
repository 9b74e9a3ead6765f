"""Revenue-model abstraction the paper's algorithms run against.

The Section-3 algorithms assume an *influence spread oracle*; Section 4
replaces it with RR-set estimates ``π̃(·, R)``. Both are monotone submodular
set functions, so we expose one interface:

- ``CoverageRevenueModel``: π̃ over an ``RRCollection`` (Lemma 4.1) — a
  weighted coverage function. With a large fixed collection this *is* the
  Section-3 oracle (exact over its sample space, so the approximation-ratio
  theorems hold exactly there); with RMA's progressive collections it is the
  Section-4 estimator. Its state keeps, as TIM does, each (advertiser, node)'s
  count of uncovered RR sets, so a marginal gain is an O(1) read: the same
  integer count × ``factor`` as a recount of the uncovered sets.
- ``ExactRevenueModel``: exact π by live-edge world enumeration — ground
  truth for tiny test instances.

``RMProblem`` bundles a model with per-node costs and budgets; every
algorithm takes an ``RMProblem``. ``brute_force_opt`` computes OPT by
exhaustive allocation enumeration for ratio tests.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.influence.rrset import RRCollection


class RevenueModel:
    """Shared part of the two models. Each also defines ``n``, ``h``,
    ``cpe``, ``singleton_pi()`` (the (h, n) matrix of π_i({u})),
    ``pi_of(i, S)`` (a stateless π_i(S)) and ``state(allocation=None)``,
    whose ``gain(u, i)``, ``add(u, i)`` and ``pi_i(i)`` track an allocation
    incrementally."""

    def pi_alloc(self, allocation) -> float:
        return float(sum(self.pi_of(i, allocation[i]) for i in range(self.h)))


# ---------------------------------------------------------------------------
# Coverage model over RR sets
# ---------------------------------------------------------------------------


class _CoverageState:
    """π̃ of an allocation built one (u, i) at a time.

    Invariant: ``uncov[i·n + u]`` is the number of advertiser i's RR sets
    that contain u and are not yet covered, so ``gain`` is one array read.
    ``add`` marks the sets that (u, i) newly covers and decrements ``uncov``
    once for every member of each of them.
    """

    def __init__(self, model: "CoverageRevenueModel", allocation=None):
        rr = model.rr
        self.rr = rr
        self.n = rr.n
        self.factor = model.factor
        self.covered = np.zeros(rr.n_rr, dtype=bool)
        self.cov_count = np.zeros(model.h, dtype=np.int64)
        self.uncov = np.diff(rr.index)
        if allocation is not None:
            for i in range(model.h):
                for u in allocation[i]:
                    self.add(int(u), i)

    def gain(self, u: int, i: int) -> float:
        return float(self.uncov[i * self.n + u]) * self.factor

    def add(self, u: int, i: int) -> None:
        ids = self.rr.rr_ids_for(u, i)
        newly = ids[~self.covered[ids]]
        if len(newly) == 0:
            return
        self.covered[newly] = True
        self.cov_count[i] += len(newly)
        np.subtract.at(self.uncov, self.rr.members_of(newly), 1)

    def pi_i(self, i: int) -> float:
        return float(self.cov_count[i]) * self.factor

    def pi_total(self) -> float:
        return float(self.cov_count.sum()) * self.factor


class CoverageRevenueModel(RevenueModel):
    """π̃(·, R) = nΓ·coverage/|R| over an RR collection."""

    def __init__(self, rr: RRCollection):
        self.rr = rr
        self.n = rr.n
        self.h = rr.h
        self.cpe = rr.cpe
        self.factor = rr.factor
        self._singleton = None

    def singleton_pi(self) -> np.ndarray:
        if self._singleton is None:
            self._singleton = (
                self.rr.singleton_cover_counts().astype(np.float64) * self.factor
            )
        return self._singleton

    def pi_of(self, i: int, nodes) -> float:
        return float(self.rr.n_covered(i, nodes)) * self.factor

    def state(self, allocation=None) -> _CoverageState:
        return _CoverageState(self, allocation)


# ---------------------------------------------------------------------------
# Exact model by live-edge enumeration (tiny instances)
# ---------------------------------------------------------------------------


class _ExactState:
    def __init__(self, model: "ExactRevenueModel", allocation=None):
        self.model = model
        # Per advertiser: current reached-set bitmask per world.
        self.masks = [
            np.zeros(len(model.worlds[i][0]), dtype=object) for i in range(model.h)
        ]
        for i in range(model.h):
            self.masks[i][:] = 0
        if allocation is not None:
            for i in range(model.h):
                for u in allocation[i]:
                    self.add(int(u), i)

    def _pi_masks(self, i: int, masks) -> float:
        p_w, reach = self.model.worlds[i]
        s = 0.0
        for w in range(len(p_w)):
            s += p_w[w] * int(masks[w]).bit_count()
        return s * self.model.cpe[i]

    def gain(self, u: int, i: int) -> float:
        p_w, reach = self.model.worlds[i]
        s = 0.0
        for w in range(len(p_w)):
            cur = int(self.masks[i][w])
            s += p_w[w] * ((cur | reach[w][u]).bit_count() - cur.bit_count())
        return s * self.model.cpe[i]

    def add(self, u: int, i: int) -> None:
        p_w, reach = self.model.worlds[i]
        for w in range(len(p_w)):
            self.masks[i][w] = int(self.masks[i][w]) | reach[w][u]

    def pi_i(self, i: int) -> float:
        return self._pi_masks(i, self.masks[i])

    def pi_total(self) -> float:
        return float(sum(self.pi_i(i) for i in range(self.model.h)))


class ExactRevenueModel(RevenueModel):
    """Exact π_i via full live-edge world enumeration (m ≤ ~14 edges)."""

    def __init__(self, n, src, dst, probs, cpe):
        self.n = int(n)
        self.h = len(cpe)
        self.cpe = np.asarray(cpe, dtype=np.float64)
        src = np.asarray(src)
        dst = np.asarray(dst)
        probs2d = np.atleast_2d(np.asarray(probs, dtype=np.float64))
        m = len(src)
        assert m <= 14, "exact model is for tiny instances"
        self.worlds = []
        for i in range(self.h):
            row = probs2d[0] if probs2d.shape[0] == 1 else probs2d[i]
            p_ws, reaches = [], []
            for world in range(1 << m):
                p_world = 1.0
                for e in range(m):
                    p_world *= row[e] if (world >> e) & 1 else 1.0 - row[e]
                if p_world == 0.0:
                    continue
                adj: dict[int, list[int]] = {}
                for e in range(m):
                    if (world >> e) & 1:
                        adj.setdefault(int(src[e]), []).append(int(dst[e]))
                reach = [0] * self.n
                for v in range(self.n):
                    seen = {v}
                    q = deque([v])
                    while q:
                        x = q.popleft()
                        for y in adj.get(x, ()):
                            if y not in seen:
                                seen.add(y)
                                q.append(y)
                    mask = 0
                    for x in seen:
                        mask |= 1 << x
                    reach[v] = mask
                p_ws.append(p_world)
                reaches.append(reach)
            self.worlds.append((np.asarray(p_ws), reaches))

    def singleton_pi(self) -> np.ndarray:
        out = np.zeros((self.h, self.n))
        for i in range(self.h):
            for u in range(self.n):
                out[i, u] = self.pi_of(i, [u])
        return out

    def pi_of(self, i: int, nodes) -> float:
        nodes = list(nodes)
        if not nodes:
            return 0.0
        p_w, reach = self.worlds[i]
        s = 0.0
        for w in range(len(p_w)):
            mask = 0
            for u in nodes:
                mask |= reach[w][int(u)]
            s += p_w[w] * mask.bit_count()
        return s * float(self.cpe[i])

    def state(self, allocation=None) -> _ExactState:
        return _ExactState(self, allocation)


# ---------------------------------------------------------------------------
# Problem bundle + brute force
# ---------------------------------------------------------------------------


def check_inputs(costs: np.ndarray, budgets: np.ndarray, cpe, n: int) -> None:
    """Raise ``ValueError`` unless costs is an (h, n) array and budgets an
    (h,) array, h = len(cpe), both finite and non-negative, and every cpe is
    finite and positive. A zero budget is legal."""
    cpe = np.asarray(cpe, dtype=np.float64)
    h = len(cpe)
    if costs.shape != (h, n):
        raise ValueError(f"costs must have shape (h, n) = {(h, n)}, got {costs.shape}")
    if budgets.shape != (h,):
        raise ValueError(f"budgets must have shape (h,) = {(h,)}, got {budgets.shape}")
    if not (np.isfinite(costs).all() and (costs >= 0).all()):
        raise ValueError("costs must be finite and non-negative")
    if not (np.isfinite(budgets).all() and (budgets >= 0).all()):
        raise ValueError("budgets must be finite and non-negative")
    if not (np.isfinite(cpe).all() and (cpe > 0).all()):
        raise ValueError("cpe must be finite and positive")


@dataclass
class RMProblem:
    """Model + budget data for one RM instance (possibly in sampling space)."""

    model: RevenueModel
    costs: np.ndarray  # (h, n)
    budgets: np.ndarray  # (h,)

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.budgets = np.asarray(self.budgets, dtype=np.float64)
        check_inputs(self.costs, self.budgets, self.model.cpe, self.model.n)

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def h(self) -> int:
        return self.model.h

    @property
    def cpe(self) -> np.ndarray:
        return self.model.cpe

    def cost_of(self, i: int, nodes) -> float:
        return float(sum(self.costs[i, int(u)] for u in nodes))

    def is_feasible(self, allocation, *, slack: float = 1e-9) -> bool:
        """Budget + disjointness feasibility of an allocation."""
        seen: set[int] = set()
        for i in range(self.h):
            s = set(int(u) for u in allocation[i])
            if seen & s:
                return False
            seen |= s
            if self.cost_of(i, s) + self.model.pi_of(i, s) > self.budgets[i] + slack:
                return False
        return True


def brute_force_opt(prob: RMProblem) -> tuple[float, list[set]]:
    """Exhaustive OPT over all (h+1)^n allocations. Tiny instances only."""
    n, h = prob.n, prob.h
    assert (h + 1) ** n <= 400_000, "brute force limited to tiny instances"
    best, best_alloc = 0.0, [set() for _ in range(h)]
    for assign in itertools.product(range(h + 1), repeat=n):
        alloc = [set() for _ in range(h)]
        for u, a in enumerate(assign):
            if a > 0:
                alloc[a - 1].add(u)
        ok = True
        total = 0.0
        for i in range(h):
            pi = prob.model.pi_of(i, alloc[i])
            if prob.cost_of(i, alloc[i]) + pi > prob.budgets[i] + 1e-9:
                ok = False
                break
            total += pi
        if ok and total > best:
            best, best_alloc = total, alloc
    return best, best_alloc
