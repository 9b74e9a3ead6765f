"""Tests for RR-set generation: kernels, uniform sampling, indexing, Spark."""
import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.experiments import instances
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.evaluate import singleton_spreads
from repro.influence.rrset import (
    BLOCK,
    from_memberships,
    generate_rr_collection,
    generate_rr_local,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=21)
    g = np.random.default_rng(21)
    probs = g.uniform(0.02, 0.35, size=(3, len(src)))
    return build_csr(n, src, dst, probs, h=3, shared_probs=False)


@pytest.fixture(scope="module")
def wc_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=22)
    indeg = np.bincount(dst, minlength=n)
    probs = (1.0 / indeg[dst])[None, :]
    return build_csr(n, src, dst, probs, h=3, shared_probs=True)


CPE = np.array([1.0, 1.5, 2.0])


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_every_rr_contains_its_root_count(small_csr, kernel):
    rr = generate_rr_local(small_csr, CPE, 2000, seed=1, kernel=kernel)
    # Every task produced at least one member row (the root).
    assert rr.exploded["rr_id"].nunique() == 2000
    # Membership rows carry the rr's advertiser.
    adv_by_rr = rr.exploded.groupby("rr_id")["adv"].nunique()
    assert (adv_by_rr == 1).all()


def test_advertiser_sampling_proportional_to_cpe(small_csr):
    """§4.2 step 1: P(adv = i) ∝ cpe(i)."""
    rr = generate_rr_local(small_csr, CPE, 30000, seed=2)
    frac = np.bincount(rr.rr_adv, minlength=3) / rr.n_rr
    expect = CPE / CPE.sum()
    assert np.allclose(frac, expect, atol=0.02)


def test_determinism(small_csr):
    a = generate_rr_local(small_csr, CPE, 500, seed=3)
    b = generate_rr_local(small_csr, CPE, 500, seed=3)
    pd.testing.assert_frame_equal(a.exploded, b.exploded)


def test_seeds_differ(small_csr):
    a = generate_rr_local(small_csr, CPE, 500, seed=3)
    b = generate_rr_local(small_csr, CPE, 500, seed=4)
    assert not a.exploded.equals(b.exploded)


def test_inverted_index_consistency(small_csr):
    rr = generate_rr_local(small_csr, CPE, 1000, seed=5)
    ex = rr.exploded
    for adv in range(3):
        for node in range(0, 80, 7):
            expect = set(
                ex[(ex["adv"] == adv) & (ex["node"] == node)]["rr_id"].tolist()
            )
            got = set(rr.rr_ids_for(node, adv).tolist())
            assert got == expect


def test_singleton_cover_counts_vs_duckdb(spark, small_csr):
    """The (adv, node) coverage counts equal a SQL group-by in DuckDB."""
    rr = generate_rr_local(small_csr, CPE, 1000, seed=6)
    sdf = spark.createDataFrame(rr.exploded)
    got = sdf.groupBy("adv", "node").agg(F.count("*").alias("cnt"))
    assert_equivalent(
        got,
        "SELECT adv, node, COUNT(*) AS cnt FROM ex GROUP BY adv, node",
        ex=rr.exploded,
    )
    counts = rr.singleton_cover_counts()
    pdf = got.toPandas()
    for _, row in pdf.iterrows():
        assert counts[int(row["adv"]), int(row["node"])] == row["cnt"]


def _assert_grouped_by_rr(rr):
    """``exploded`` lists each RR set's rows together, in increasing rr_id
    order, so ``members_of`` can read RR set r's members as one run."""
    ids = rr.exploded["rr_id"].to_numpy()
    assert np.all(ids[1:] >= ids[:-1])
    ex = rr.exploded
    keys = ex["adv"].to_numpy() * rr.n + ex["node"].to_numpy()
    for r in (0, rr.n_rr // 2, rr.n_rr - 1):
        assert sorted(rr.members_of(np.array([r])).tolist()) == sorted(keys[ids == r].tolist())
    some = np.unique([1, rr.n_rr // 3, rr.n_rr - 1])
    assert np.array_equal(rr.members_of(some), keys[np.isin(ids, some)])


def test_flat_index(small_csr):
    """``index`` is the (h·n+1,) offset array of sorted_rr's key slices."""
    rr = generate_rr_local(small_csr, CPE, 1000, seed=5)
    ex = rr.exploded
    key = ex["adv"].to_numpy() * rr.n + ex["node"].to_numpy()
    assert rr.index.shape == (rr.h * rr.n + 1,)
    assert rr.index[0] == 0 and rr.index[-1] == len(ex)
    assert np.array_equal(
        rr.singleton_cover_counts().ravel(), np.bincount(key, minlength=rr.h * rr.n)
    )


def test_grouped_by_rr_local_merge_memberships(small_csr):
    a = generate_rr_local(small_csr, CPE, N_INVARIANT, seed=14)
    b = generate_rr_local(small_csr, CPE, 600, seed=8)
    memb = from_memberships(5, 2, [1.0, 1.0], [(0, {3, 0, 1}), (1, {2}), (0, {1}), (1, {4, 0})])
    for rr in (a, a.merge(b), memb):
        _assert_grouped_by_rr(rr)


@pytest.mark.parametrize("parts", [1, 3, 8])
def test_grouped_by_rr_spark(spark, small_csr, parts):
    _assert_grouped_by_rr(generate_rr_collection(
        spark, small_csr, CPE, N_INVARIANT, seed=14, num_partitions=parts,
    ))


def test_merge(small_csr):
    a = generate_rr_local(small_csr, CPE, 400, seed=7)
    b = generate_rr_local(small_csr, CPE, 600, seed=8)
    m = a.merge(b)
    assert m.n_rr == 1000
    assert np.array_equal(m.rr_adv[:400], a.rr_adv)
    assert np.array_equal(m.rr_adv[400:], b.rr_adv)
    assert np.array_equal(
        m.singleton_cover_counts(),
        a.singleton_cover_counts() + b.singleton_cover_counts(),
    )


@pytest.mark.parametrize("fixture", ["small_csr", "wc_csr"])
def test_subsim_matches_standard_distribution(request, fixture):
    """Both kernels sample the same RR-set distribution (Appendix D.2)."""
    csr = request.getfixturevalue(fixture)
    n_rr = 30000
    std = generate_rr_local(csr, CPE, n_rr, seed=9, kernel="standard")
    sub = generate_rr_local(csr, CPE, n_rr, seed=10, kernel="subsim")
    # Mean RR-set size and mean singleton spreads agree within noise.
    size_std = len(std.exploded) / n_rr
    size_sub = len(sub.exploded) / n_rr
    assert abs(size_std - size_sub) / size_std < 0.05
    s1, s2 = singleton_spreads(std), singleton_spreads(sub)
    assert np.abs(s1 - s2).max() / s1.max() < 0.1


def test_spark_generation_matches_local_statistics(spark, small_csr):
    loc = generate_rr_local(small_csr, CPE, 20000, seed=11)
    dist = generate_rr_collection(spark, small_csr, CPE, 20000, seed=11)
    s1, s2 = singleton_spreads(loc), singleton_spreads(dist)
    assert np.abs(s1 - s2).max() / s1.max() < 0.1
    frac1 = np.bincount(loc.rr_adv, minlength=3) / loc.n_rr
    frac2 = np.bincount(dist.rr_adv, minlength=3) / dist.n_rr
    assert np.allclose(frac1, frac2, atol=0.02)


def test_spark_generation_deterministic(spark, small_csr):
    a = generate_rr_collection(spark, small_csr, CPE, 2000, seed=12, num_partitions=8)
    b = generate_rr_collection(spark, small_csr, CPE, 2000, seed=12, num_partitions=8)
    pd.testing.assert_frame_equal(
        a.exploded.sort_values(["rr_id", "node"]).reset_index(drop=True),
        b.exploded.sort_values(["rr_id", "node"]).reset_index(drop=True),
    )


def _sorted_rows(rr):
    return rr.exploded.sort_values(["rr_id", "node"]).reset_index(drop=True)


def _assert_same_collection(a, b):
    assert a.n_rr == b.n_rr
    pd.testing.assert_frame_equal(_sorted_rows(a), _sorted_rows(b))
    assert np.array_equal(a.rr_adv, b.rr_adv)


# Two full blocks and a partial one.
N_INVARIANT = 2 * BLOCK + 123


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_local_and_spark_paths_bitwise_equal(spark, small_csr, kernel):
    """The same seed gives the same collection on the driver and on Spark,
    whatever the partition count: blocks, not partitions, carry the seeds."""
    loc = generate_rr_local(small_csr, CPE, N_INVARIANT, seed=14, kernel=kernel)
    for parts in (1, 3, 8):
        dist = generate_rr_collection(
            spark, small_csr, CPE, N_INVARIANT, seed=14, kernel=kernel,
            num_partitions=parts,
        )
        _assert_same_collection(loc, dist)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_instance_generators_path_invariant(spark, monkeypatch, kernel):
    """Both branches of the members rule in Instance.rr_gen / rr_gen_adv
    return the same collection for a seed."""
    inst = instances.get_instance(spark, "tiny", alpha=0.1, cost_model="linear")
    out = {}
    for branch, limit in (("local", float("inf")), ("spark", 0)):
        monkeypatch.setattr(instances, "_LOCAL_GEN_MEMBERS", limit)
        out[branch] = (
            inst.rr_gen(spark, kernel)(N_INVARIANT, 15),
            inst.rr_gen_adv(spark, kernel)(1, N_INVARIANT, 16),
        )
    for a, b in zip(out["local"], out["spark"]):
        _assert_same_collection(a, b)
    assert set(np.unique(out["local"][1].rr_adv)) == {1}


def _star_csr(probs):
    """Node 0 with in-neighbours 1..d; no other node has in-edges."""
    d = len(probs)
    src = np.arange(1, d + 1, dtype=np.int64)
    dst = np.zeros(d, dtype=np.int64)
    return build_csr(d + 1, src, dst, np.asarray(probs)[None, :], h=1, shared_probs=True)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
@pytest.mark.parametrize(
    "probs",
    [
        # Heterogeneous (TIC-like), high enough that some nodes draw more
        # envelope hits than half their in-degree.
        np.linspace(0.05, 0.7, 12),
        np.full(12, 1.0 / 12),  # Weighted Cascade
        np.full(12, 0.6),  # equal and dense
    ],
    ids=["tic", "wc", "equal_dense"],
)
def test_in_neighbour_marginals_exact(kernel, probs):
    """RR sets rooted at the star's centre contain in-neighbour j with
    probability p_j: the SUBSIM envelope-and-thinning draw selects each
    in-edge independently with its own probability."""
    csr = _star_csr(probs)
    rr = generate_rr_local(csr, [1.0], 13 * 20000, seed=17, kernel=kernel)
    ex = rr.exploded
    rooted = ex["rr_id"][ex["node"] == 0].to_numpy()  # only v's RR sets hold v
    members = ex[ex["rr_id"].isin(rooted)]
    freq = np.bincount(members["node"], minlength=13)[1:] / len(rooted)
    se = np.sqrt(probs * (1 - probs) / len(rooted))
    assert np.all(np.abs(freq - probs) < 5 * se), (freq, probs)


def test_from_memberships():
    rr = from_memberships(5, 2, [1.0, 1.0], [(0, {0, 1}), (1, {2}), (0, {1})])
    assert rr.n_rr == 3
    assert set(rr.rr_ids_for(1, 0).tolist()) == {0, 2}
    assert set(rr.rr_ids_for(2, 1).tolist()) == {1}
    assert rr.rr_ids_for(2, 0).size == 0
    assert rr.factor == pytest.approx(5 * 2.0 / 3)


def test_isolated_node_rr_is_singleton():
    """A node with no in-edges yields an RR set of exactly itself."""
    src = np.array([0], dtype=np.int64)
    dst = np.array([1], dtype=np.int64)
    csr = build_csr(3, src, dst, np.array([[1.0]]), h=1, shared_probs=True)
    rr = generate_rr_local(csr, [1.0], 500, seed=13)
    ex = rr.exploded
    roots2 = ex.groupby("rr_id")["node"].apply(set)
    for nodes in roots2:
        assert nodes in ({0}, {2}, {0, 1})  # node1's RR always pulls node0 (p=1)
