"""Reverse-Reachable set generation with uniform advertiser sampling (§4.1–4.2).

A random RR set under the paper's *uniform sampling* method is generated by
(1) drawing an advertiser i with probability ``cpe(i)/Γ`` and (2) running a
reverse BFS from a uniformly random root with advertiser-i edge
probabilities. Lemma 4.1: ``π(S⃗) = nΓ·E[Λ(S⃗, R)]``, so coverage over a
collection estimates revenue with a single, identically-distributed sample.

Generation is the dominant cost of every RR-set algorithm (Appendix C). Its
unit of work is a *block*: the ``BLOCK`` consecutive RR ids starting at
``b·BLOCK`` (the last block is cut at ``n_rr``), built by one call of
``_rr_block`` from an RNG seeded with ``(seed, b)``. A block runs one
level-synchronous reverse BFS over all of its RR sets: each level gathers
the in-edges of every frontier entry, draws their coins in one vector, and
drops the ``(rr, node)`` pairs the block has already visited (a sorted key
array).

Seeding contract: a collection depends only on ``(seed, n_rr, kernel)``,
the graph, the cpe weights and ``BLOCK``. ``generate_rr_local`` runs the
blocks in order on the driver; ``generate_rr_collection`` sends one task row
per block through ``mapInPandas`` with the CSR graph broadcast. Both return
bitwise-identical collections, for any partition count: the path decides
*where* the work runs, never *what* it produces.

Two kernels draw the in-edges that a frontier entry activates:

- ``standard``: one Bernoulli coin per in-edge (O(indeg) per entry).
- ``subsim``: subset sampling in the spirit of SUBSIM [34]. Draw
  k ~ Binomial(d, p_max) envelope hits among the d in-edges, put them on k
  distinct positions, and keep the hit on edge j with probability
  p_j / p_max, so each edge is selected independently with probability p_j
  for O(1 + d·p_max) work. When all of a node's in-edge probabilities are
  equal (Weighted Cascade), every hit is kept and no thinning coin is drawn.

Both kernels draw from the *same distribution* over RR sets (tested), which
is the property the paper relies on in Appendix D.2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph

# RR ids per block. Part of the seeding contract: changing it changes every
# collection generated from a given seed.
BLOCK = 4096

_EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Block kernel (top-level so Spark workers can import it)
# ---------------------------------------------------------------------------


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of sum(counts) slots, entry e owning counts[e] of them."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - start[owner]


def _hits_standard(g: CSRGraph, rng: np.random.Generator, row, v):
    """(frontier entry, in-neighbour) pairs: one Bernoulli coin per in-edge."""
    lo = g.in_indptr[v]
    e, off = _segments(g.in_indptr[v + 1] - lo)
    edge = lo[e] + off
    hit = rng.random(len(edge)) < g.in_probs[row[e], edge]
    return e[hit], g.in_indices[edge[hit]]


def _distinct_positions(rng: np.random.Generator, d: np.ndarray, k: np.ndarray):
    """(entry, position) pairs: k[e] distinct positions drawn uniformly from
    [0, d[e]) for each entry e.

    Entries with 2k ≤ d draw their positions with replacement; when the k
    draws all differ they are a uniform k-subset. The other entries, and
    those with a repeat (likely only when k² is comparable to d), take the
    k smallest of d random 40-bit keys instead: O(d) work, but also a
    uniform k-subset, so the mixture is one too.
    """
    span = int(d.max()) + 1
    redo = 2 * k > d
    e, _ = _segments(np.where(redo, 0, k))
    key = np.sort(e * span + rng.integers(d[e]))
    redo[key[1:][key[1:] == key[:-1]] // span] = True
    key = key[~redo[key // span]]
    re, off = _segments(np.where(redo, d, 0))
    order = np.argsort((re << 40) | rng.integers(1 << 40, size=len(re)))
    pick = order[off < k[re]]
    return (np.concatenate([key // span, re[pick]]),
            np.concatenate([key % span, off[pick]]))


def _hits_subsim(g: CSRGraph, rng: np.random.Generator, row, v):
    """(frontier entry, in-neighbour) pairs by envelope subset sampling on the
    probability-sorted in-edge slices."""
    lo = g.in_indptr[v]
    d = g.in_indptr[v + 1] - lo
    p_max = np.zeros(len(v))
    has = d > 0
    p_max[has] = g.in_probs_sorted[row[has], lo[has]]
    e, off = _distinct_positions(rng, d, rng.binomial(d, p_max))
    edge = lo[e] + off
    keep = g.in_equal_prob[row[e], v[e]]
    thin = ~keep
    keep[thin] = (rng.random(np.count_nonzero(thin))
                  < g.in_probs_sorted[row[e[thin]], edge[thin]] / p_max[e[thin]])
    return e[keep], g.in_indices_sorted[row[e[keep]], edge[keep]]


_KERNELS = {"standard": _hits_standard, "subsim": _hits_subsim}


def _rr_block(g: CSRGraph, w: np.ndarray, seed: int, kernel: str, block: int, n_rr: int):
    """Member rows (rr_id, adv, node) of one block, sorted by (rr_id, node)."""
    hits = _KERNELS[kernel]
    first = block * BLOCK
    size = min(BLOCK, n_rr - first)
    rng = np.random.default_rng([seed, block])
    adv = rng.choice(g.h, size=size, p=w)
    row = np.zeros(size, dtype=np.int64) if g.shared_probs else adv
    n = g.n
    # Frontier entries (block-local rr, node); seen holds rr·n + node, sorted.
    rr = np.arange(size)
    v = rng.integers(0, n, size=size)
    seen = rr * n + v
    while len(rr):
        e, u = hits(g, rng, row[rr], v)
        key = np.unique(rr[e] * n + u)
        at = np.searchsorted(seen, key)
        fresh = seen[np.minimum(at, len(seen) - 1)] != key
        seen = np.insert(seen, at[fresh], key[fresh])
        rr, v = np.divmod(key[fresh], n)
    rr, node = np.divmod(seen, n)
    return first + rr, adv[rr], node


def _frame(blocks) -> pd.DataFrame:
    """One exploded (rr_id, adv, node) frame from the blocks' member rows."""
    cols = [np.concatenate(c) for c in zip(*blocks)] or [_EMPTY] * 3
    return pd.DataFrame(dict(zip(("rr_id", "adv", "node"), cols)))


# ---------------------------------------------------------------------------
# RR collection (driver-side index over generated sets)
# ---------------------------------------------------------------------------


@dataclass
class RRCollection:
    """Indexed collection of RR sets for coverage-based revenue estimation.

    Two flat layouts over the same members, each a CSR-style offset array:

    - ``index``, of shape (h·n+1,): the ids of the RR sets generated for
      ``adv`` that contain ``node`` are
      ``sorted_rr[index[k]:index[k+1]]``, k = ``adv * n + node`` — the
      inverted index driving all greedy selection.
    - the member keys ``adv * n + node`` of RR set r, the reverse view,
      built on first use by ``members_of`` from ``exploded``, whose rows
      are grouped by ``rr_id`` in increasing order.
    """

    n: int
    h: int
    cpe: np.ndarray
    n_rr: int
    rr_adv: np.ndarray  # (n_rr,)
    sorted_rr: np.ndarray  # rr ids grouped by (adv, node) key
    index: np.ndarray  # (h·n+1,) offsets of each key's slice of sorted_rr
    exploded: pd.DataFrame  # (rr_id, adv, node), grouped by rr_id
    _members: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def gamma(self) -> float:
        return float(self.cpe.sum())

    @property
    def factor(self) -> float:
        """π̃ per covered RR set: nΓ/|R| (Lemma 4.1)."""
        return self.n * self.gamma / self.n_rr

    def rr_ids_for(self, node: int, adv: int) -> np.ndarray:
        k = adv * self.n + node
        return self.sorted_rr[self.index[k] : self.index[k + 1]]

    def members_of(self, rr_ids: np.ndarray) -> np.ndarray:
        """Keys ``adv * n + node`` of every member of the RR sets ``rr_ids``."""
        if self._members is None:
            ex = self.exploded
            rr_indptr = np.zeros(self.n_rr + 1, dtype=np.int64)
            np.cumsum(np.bincount(ex["rr_id"].to_numpy(), minlength=self.n_rr),
                      out=rr_indptr[1:])
            key = ex["adv"].to_numpy() * self.n + ex["node"].to_numpy()
            self._members = rr_indptr, key
        rr_indptr, key = self._members
        lo = rr_indptr[rr_ids]
        size = rr_indptr[rr_ids + 1] - lo
        start = np.cumsum(size) - size  # of each set's run in the result
        return key[np.repeat(lo - start, size) + np.arange(size.sum())]

    def n_covered(self, adv: int, nodes) -> int:
        """|{R for adv : R ∩ nodes ≠ ∅}| — adv's RR sets hit by ``nodes``."""
        ids = [self.rr_ids_for(int(u), adv) for u in nodes]
        return len(np.unique(np.concatenate(ids))) if ids else 0

    def singleton_cover_counts(self) -> np.ndarray:
        """(h, n) matrix of |{R for adv i : node ∈ R}| — singleton coverage."""
        return np.diff(self.index).reshape(self.h, self.n)

    def merge(self, other: "RRCollection") -> "RRCollection":
        """Concatenate two collections (progressive-sampling doubling)."""
        assert self.n == other.n and self.h == other.h
        shifted = other.exploded.copy()
        shifted["rr_id"] = shifted["rr_id"].to_numpy() + self.n_rr
        exploded = pd.concat([self.exploded, shifted], ignore_index=True)
        rr_adv = np.concatenate([self.rr_adv, other.rr_adv])
        return _index_collection(
            self.n, self.h, self.cpe, self.n_rr + other.n_rr, rr_adv, exploded
        )


def _index_collection(
    n: int,
    h: int,
    cpe: np.ndarray,
    n_rr: int,
    rr_adv: np.ndarray,
    exploded: pd.DataFrame,
) -> RRCollection:
    key = exploded["adv"].to_numpy() * n + exploded["node"].to_numpy()
    order = np.argsort(key, kind="stable")
    index = np.zeros(h * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=h * n), out=index[1:])
    return RRCollection(
        n=n,
        h=h,
        cpe=np.asarray(cpe, dtype=np.float64),
        n_rr=n_rr,
        rr_adv=rr_adv,
        sorted_rr=exploded["rr_id"].to_numpy()[order],
        index=index,
        exploded=exploded,
    )


def _assemble(
    n: int, h: int, cpe: np.ndarray, n_rr: int, pdf: pd.DataFrame
) -> RRCollection:
    rr_adv = np.zeros(n_rr, dtype=np.int64)
    rr_adv[pdf["rr_id"].to_numpy()] = pdf["adv"].to_numpy()
    return _index_collection(n, h, cpe, n_rr, rr_adv, pdf)


# ---------------------------------------------------------------------------
# Generation entry points
# ---------------------------------------------------------------------------


def from_memberships(
    n: int, h: int, cpe, memberships: list[tuple[int, set]]
) -> RRCollection:
    """Build a collection from explicit (advertiser, node-set) RR sets.

    Used by tests to construct exact coverage instances (e.g. the paper's
    footnote-8 toy example) without sampling.
    """
    rows_rr, rows_adv, rows_node = [], [], []
    rr_adv = np.zeros(len(memberships), dtype=np.int64)
    for rr_id, (adv, nodes) in enumerate(memberships):
        rr_adv[rr_id] = adv
        for v in nodes:
            rows_rr.append(rr_id)
            rows_adv.append(adv)
            rows_node.append(int(v))
    pdf = pd.DataFrame(
        {
            "rr_id": np.asarray(rows_rr, dtype=np.int64),
            "adv": np.asarray(rows_adv, dtype=np.int64),
            "node": np.asarray(rows_node, dtype=np.int64),
        }
    )
    return _index_collection(
        n, h, np.asarray(cpe, dtype=np.float64), len(memberships), rr_adv, pdf
    )


def _n_blocks(n_rr: int) -> int:
    return -(-n_rr // BLOCK)


def generate_rr_local(
    csr: CSRGraph,
    cpe: np.ndarray,
    n_rr: int,
    *,
    seed: int,
    kernel: str = "standard",
) -> RRCollection:
    """Driver-only generation: the same blocks as ``generate_rr_collection``,
    run in order without Spark."""
    cpe = np.asarray(cpe, dtype=np.float64)
    w = cpe / cpe.sum()
    pdf = _frame([_rr_block(csr, w, seed, kernel, b, n_rr) for b in range(_n_blocks(n_rr))])
    return _assemble(csr.n, csr.h, cpe, n_rr, pdf)


def generate_rr_collection(
    spark: SparkSession,
    csr: CSRGraph,
    cpe: np.ndarray,
    n_rr: int,
    *,
    seed: int,
    kernel: str = "standard",
    num_partitions: int | None = None,
) -> RRCollection:
    """Distributed generation: one task row per block → mapInPandas → Arrow
    collect. The partition count changes only how the blocks are spread."""
    cpe = np.asarray(cpe, dtype=np.float64)
    w = cpe / cpe.sum()
    n_blocks = _n_blocks(n_rr)
    if num_partitions is None:
        num_partitions = max(1, min(2 * spark.sparkContext.defaultParallelism, n_blocks))
    bc = spark.sparkContext.broadcast((csr, w))

    def gen(batches):
        g, weights = bc.value
        for b in batches:
            for block in b["id"].to_numpy():
                yield _frame([_rr_block(g, weights, seed, kernel, int(block), n_rr)])

    tasks = spark.range(0, n_blocks, numPartitions=num_partitions)
    pdf = tasks.mapInPandas(gen, schema="rr_id long, adv long, node long").toPandas()
    bc.unpersist()
    return _assemble(csr.n, csr.h, cpe, n_rr, pdf)
