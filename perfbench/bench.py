"""Workloads, output checks and metrics of the repository benchmark.

``run(spark, workload, seed, seconds, trace)`` is one benchmark run: it
sets the workload's instance up ``SETUP_REPS`` times from cold caches, then
repeats the workload's *pass* (a fixed list of ops) in a closed loop with
one caller until ``seconds`` have elapsed, checking every op's output.

Every op is deterministic for a fixed seed and Spark master, so passes
repeat the same work: timings are medians over passes, and every pass must
reproduce the first pass's outputs exactly.

With ``trace`` the run makes one untraced reference pass and then traced
passes (``spans.Tracer`` installed). Per-layer metrics come from the traced
spans, and the traced outputs must equal the reference pass's, which shows
that the wrappers do not change behaviour.
"""
from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from spans import CHECK_SPAN, Tracer

from repro.experiments import instances
from repro.experiments.harness import run_rma, run_ti
from repro.experiments.tables import EXP
from repro.influence.evaluate import evaluate_revenue

SETUP_REPS = 3
PROBE_REPS = 3  # calls per kernel probe and pass; throughput is their median
# Workload seed s shifts every sampling seed (RMA, TI, RR generation, the
# evaluation collection) by s * SEED_STRIDE; s = 0 gives the Table 3 seeds.
# The graph and its singleton-spread collection stay the preset's: a new
# graph per seed moves the mean RR-set size, and with it every timing, by
# far more than the bounds (members per 100K flixster sets ranged 305K-455K
# over six graph seeds).
SEED_STRIDE = 1009
EVAL_SEED, RMA_SEED, TI_SEED, GEN_SEED = 424242, 7, 11, 5
RHO = 0.1  # §5.1: RMA's budget overshoot; the baselines get (1+ϱ)B
REF_SEEDS_PER_ADV = 10  # size of the fixed allocation the rrgen ops score
REF_TOLERANCE_SE = 6.0
KERNELS = ("standard", "subsim")


@dataclass(frozen=True)
class Op:
    """One call of a pass. ``solve`` ops make up ``solve_s``; the others are
    kernel probes that only feed ``rr_sets_per_s.<kernel>``."""

    kind: str  # "rma" | "ti" | "gen" | "gen_adv"
    kernel: str = "standard"
    alpha: float = 0.1
    rule: str = ""  # TI: "gain" (TI-CARM) | "rate" (TI-CSRM)
    n_rr: int = 0  # gen: RR sets per call
    solve: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    ops: tuple[Op, ...]


# The probes go through each workload's own generator: RMA's uniform
# generator above the local threshold (the Spark path) on flixster, and the
# baselines' per-advertiser generator at ti_cap (the local path) on lastfm.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rma_flixster", "flixster_lite", (
            Op("rma", alpha=0.1),
            Op("rma", alpha=0.3),
            *tuple(Op("gen", k, n_rr=100_000, solve=False) for k in KERNELS) * PROBE_REPS,
        )),
        Workload("ti_lastfm", "lastfm_lite", (
            Op("ti", rule="gain"),
            Op("ti", rule="rate"),
            *tuple(Op("gen_adv", k, solve=False) for k in KERNELS) * PROBE_REPS,
        )),
        Workload("rrgen_livejournal", "livejournal_lite", (
            Op("gen", "standard", n_rr=100_000),
            Op("gen", "subsim", n_rr=100_000),
        )),
    )
}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------


def check_rr(rr, n_rr: int) -> list[str]:
    """Exactly ``n_rr`` sets, advertisers in [0, h), members in [0, n), none empty."""
    out = []
    if rr.n_rr != n_rr or len(rr.rr_adv) != n_rr:
        out.append(f"{rr.n_rr} RR sets ({len(rr.rr_adv)} advertisers), asked {n_rr}")
    if len(rr.rr_adv) and (rr.rr_adv.min() < 0 or rr.rr_adv.max() >= rr.h):
        out.append("rr_adv outside [0, h)")
    ids = rr.exploded["rr_id"].to_numpy()
    nodes = rr.exploded["node"].to_numpy()
    if len(ids) and (ids.min() < 0 or ids.max() >= rr.n_rr):
        out.append("rr_id outside [0, n_rr)")
    elif rr.n_rr and np.bincount(ids, minlength=rr.n_rr).min() == 0:
        out.append("empty RR set")
    if len(nodes) and (nodes.min() < 0 or nodes.max() >= rr.n):
        out.append("member outside [0, n)")
    return out


def check_allocation(alloc, n: int, h: int) -> list[str]:
    """h seed sets, seeds in [0, n), disjoint across advertisers."""
    if len(alloc) != h:
        return [f"{len(alloc)} seed sets for {h} advertisers"]
    seeds = [int(u) for s in alloc for u in s]
    out = []
    if any(u < 0 or u >= n for u in seeds):
        out.append("seed outside [0, n)")
    if len(set(seeds)) != len(seeds):
        out.append("allocation not disjoint across advertisers")
    return out


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    exp: dict
    inst: object  # Instance at the first op's α
    eval_rr: object
    ref_alloc: list  # fixed allocation scored on the rrgen ops' sets


def setup(spark, wl: Workload, seed: int, tracer: Tracer | None) -> Setup:
    """Instance and evaluation collection, built from cold caches."""
    instances._INSTANCE_CACHE.clear()
    instances._EVAL_CACHE.clear()
    exp = EXP[wl.preset]
    inst = instances.get_instance(spark, wl.preset, alpha=wl.ops[0].alpha)
    with tracer.span("influence.eval_rr") if tracer else nullcontext():
        ev = instances.get_eval_rr(
            spark, inst, n_eval=exp["n_eval"], seed=EVAL_SEED + SEED_STRIDE * seed
        )
    # Top singleton-spread nodes dealt round-robin: disjoint by construction.
    top = np.argsort(-inst.sigma1.sum(axis=0), kind="stable")[: inst.h * REF_SEEDS_PER_ADV]
    ref = [set(int(u) for u in top[i :: inst.h]) for i in range(inst.h)]
    return Setup(exp, inst, ev, ref)


def check_setup(s: Setup) -> list[str]:
    out = [f"evaluation collection: {p}" for p in check_rr(s.eval_rr, s.exp["n_eval"])]
    if not np.all(np.isfinite(s.inst.costs)) or s.inst.costs.min() < 0:
        out.append("seed costs not finite and non-negative")
    return out


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    problems: list
    fingerprint: tuple  # outputs that every pass must reproduce exactly
    revenue: float = 0.0
    sets: int = 0  # RR sets made by a gen / gen_adv op
    budget_ratio: float = 0.0
    info: dict | None = None  # what the op did, for the run record


def _call(spark, s: Setup, op: Op, seed: int, timed):
    """The op's timed call inside ``timed``; returns (wall s, instance, result)."""
    off = SEED_STRIDE * seed
    inst = s.inst
    if op.kind in ("rma", "ti"):
        inst = instances.get_instance(spark, s.inst.name, alpha=op.alpha)
    with timed:
        t0 = time.perf_counter()
        if op.kind == "rma":
            res = run_rma(
                spark, inst, s.eval_rr, eps=0.02, tau=0.1, rho=RHO,
                sample_scale=s.exp["sample_scale"], rr_cap=s.exp["rr_cap"],
                kernel=op.kernel, seed=RMA_SEED + off,
            )
        elif op.kind == "ti":
            res = run_ti(
                spark, inst, s.eval_rr, rule=op.rule, eps=0.1, rho=RHO,
                sample_scale=s.exp["sample_scale"], rr_cap=s.exp["ti_cap"],
                kernel=op.kernel, seed=TI_SEED + off, max_latent=s.exp["max_latent"],
            )
        elif op.kind == "gen":
            res = [inst.rr_gen(spark, op.kernel)(op.n_rr, GEN_SEED + off)]
        else:
            gen = inst.rr_gen_adv(spark, op.kernel)
            res = [gen(i, s.exp["ti_cap"], GEN_SEED + off + i) for i in range(inst.h)]
        wall = time.perf_counter() - t0
    return wall, inst, res


def _score(s: Setup, op: Op, wall: float, inst, res) -> OpResult:
    """Checks and outputs of one op, computed outside its timed call."""
    if op.kind in ("rma", "ti"):
        problems = check_allocation(res.allocation, inst.n, inst.h)
        if not res.revenue > 0:
            problems.append(f"revenue {res.revenue} is not > 0")
        _, per_adv = evaluate_revenue(s.eval_rr, res.allocation)
        cost = np.array([sum(inst.costs[i, int(u)] for u in a)
                         for i, a in enumerate(res.allocation)])
        ratio = float(np.max((cost + per_adv) / ((1.0 + RHO) * inst.budgets)))
        alloc = tuple(tuple(sorted(int(u) for u in a)) for a in res.allocation)
        p = res.params
        fp = (res.revenue, res.n_rr_total, p.get("rounds"), p.get("stopped_by"),
              p.get("regenerations"), alloc)
        info = dict(algo=res.algo, alpha=res.alpha, kernel=res.kernel,
                    revenue=res.revenue, n_rr_total=res.n_rr_total, **p)
        return OpResult(wall, problems, fp, revenue=res.revenue, budget_ratio=ratio,
                        info=info)
    n_rr = op.n_rr if op.kind == "gen" else s.exp["ti_cap"]
    problems = [p for rr in res for p in check_rr(rr, n_rr)]
    fp = tuple((rr.n_rr, len(rr.exploded), int(rr.rr_adv.sum()),
                int(rr.exploded["node"].sum())) for rr in res)
    revenue = sum(_reference_estimate(s, rr, problems) for rr in res) if op.solve else 0.0
    sets = sum(rr.n_rr for rr in res)
    info = dict(kind=op.kind, kernel=op.kernel, sets=sets,
                members=sum(len(rr.exploded) for rr in res), revenue=revenue)
    return OpResult(wall, problems, fp, revenue=revenue, sets=sets, info=info)


def _reference_estimate(s: Setup, rr, problems: list) -> float:
    """π̃ of the fixed reference allocation on generated sets; it must match
    the independent evaluation collection within sampling error."""
    n_gamma = rr.n * rr.gamma
    est, _ = evaluate_revenue(rr, s.ref_alloc)
    ref, _ = evaluate_revenue(s.eval_rr, s.ref_alloc)
    p1, p2 = est / n_gamma, ref / n_gamma
    se = n_gamma * np.sqrt(p1 * (1 - p1) / rr.n_rr + p2 * (1 - p2) / s.eval_rr.n_rr)
    if not est > 0:
        problems.append(f"reference revenue estimate {est} is not > 0")
    elif abs(est - ref) > REF_TOLERANCE_SE * se:
        problems.append(
            f"reference revenue {est:.1f} vs {ref:.1f} on the evaluation "
            f"collection: more than {REF_TOLERANCE_SE} standard errors apart"
        )
    return est


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the problems of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _pass(spark, s: Setup, wl: Workload, seed: int, tally: Tally, tag: str,
          tracer: Tracer | None) -> list:
    """One pass over the workload's ops; None marks an op that raised."""
    out = []
    for k, op in enumerate(wl.ops):
        op_id = f"{tag}.{k}"
        timed = tracer.span(f"op.{op.kind}", op=op_id) if tracer else nullcontext()
        try:
            r = _score(s, op, *_call(spark, s, op, seed, timed))
        except Exception:
            tally.record(op_id, [traceback.format_exc()])
            out.append(None)
            continue
        if tracer is not None:
            r.problems += tracer.problems.pop(op_id, [])
        tally.record(op_id, r.problems)
        out.append(r)
    return out


def _compare(tally: Tally, ref: list, other: list, what: str) -> None:
    """A later pass must reproduce the reference pass's outputs exactly."""
    for k, (a, b) in enumerate(zip(ref, other)):
        if a is not None and b is not None and a.fingerprint != b.fingerprint:
            tally.failed += 1
            tally.problems.append(f"{what}, op {k}: outputs differ from the first pass")


def _pass_metrics(wl: Workload, results: list) -> dict:
    return dict(
        solve_s=sum(r.wall_s for r, op in zip(results, wl.ops) if op.solve),
        revenue=sum(r.revenue for r in results),
        budget_ratio=max(r.budget_ratio for r in results),
    )


def _throughput(wl: Workload, passes: list, kernel: str) -> float:
    """Median RR sets/s over every generation call of ``kernel``."""
    return statistics.median(
        r.sets / r.wall_s for p in passes for r, op in zip(p, wl.ops)
        if op.kind.startswith("gen") and op.kernel == kernel
    )


def run(spark, wl: Workload, *, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: counts, problems, metrics and records."""
    tally = Tally()
    tracer = Tracer(check_rr=check_rr) if trace else None
    setup_s, s = [], None
    for rep in range(SETUP_REPS):
        try:
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.installed(), tracer.span("setup", op=f"setup{rep}"):
                    s = setup(spark, wl, seed, tracer)
            else:
                s = setup(spark, wl, seed, None)
            setup_s.append(time.perf_counter() - t0)
            problems = check_setup(s)
            if tracer is not None:
                problems += tracer.problems.pop(f"setup{rep}", [])
            tally.record(f"setup{rep}", problems)
        except Exception:
            tally.record(f"setup{rep}", [traceback.format_exc()])
            return dict(attempted=tally.attempted, failed=tally.failed,
                        problems=tally.problems, metrics={})

    passes, traced = [], []
    t_start = time.perf_counter()
    if tracer is not None:
        passes.append(_pass(spark, s, wl, seed, tally, "ref", None))
        with tracer.installed():
            while not traced or time.perf_counter() - t_start < seconds:
                traced.append(_pass(spark, s, wl, seed, tally, f"p{len(traced)}", tracer))
    else:
        while not passes or time.perf_counter() - t_start < seconds:
            passes.append(_pass(spark, s, wl, seed, tally, f"p{len(passes)}", None))
    for i, p in enumerate(passes[1:] + traced, 1):
        _compare(tally, passes[0], p, f"pass {i}")

    out = dict(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
               setup_runs_s=setup_s, metrics={})
    if tally.failed:
        return out
    per = [_pass_metrics(wl, p) for p in passes]
    out["pass_solve_s"] = [m["solve_s"] for m in per]
    out["ops"] = [dict(wall_s=r.wall_s, solve=op.solve, **r.info)
                  for r, op in zip(passes[0], wl.ops)]
    out["metrics"] = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (statistics.median(out["pass_solve_s"]), "s"),
        "revenue": (per[0]["revenue"], "revenue"),
        **{f"rr_sets_per_s.{k}": (_throughput(wl, passes, k), "sets/s") for k in KERNELS},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is not None:
        layers, problems = layer_metrics(tracer, wl, traced, per[0])
        layers["harness.max_budget_ratio"] = (per[0]["budget_ratio"], "ratio")
        out.update(layer_metrics=layers, spans=tracer.dump(),
                   traced_solve_s=[_pass_metrics(wl, p)["solve_s"] for p in traced])
        if problems:
            tally.failed += len(problems)
            out.update(failed=tally.failed, problems=tally.problems + problems, metrics={})
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

# (span name, fields): "s" is self time, "calls" the number of spans, the
# rest are counts read from the calls' results.
_SOLVE_LAYERS = [
    ("influence.rrset.generate_spark", ("s", "calls", "sets", "members")),
    ("influence.rrset.generate_local", ("s", "calls", "sets", "members")),
    ("influence.rrset.merge", ("s", "calls")),
    ("core.rm_oracle.rm_with_oracle", ("s", "calls")),
    ("core.search.search", ("s", "calls", "iterations")),
    ("core.threshold_greedy.threshold_greedy", ("s", "calls")),
    ("core.threshold_greedy.fill", ("s", "calls")),
    ("core.greedy.greedy", ("s", "calls")),
    ("core.seekub.seek_ub", ("s",)),
    ("baselines.tim.kpt_estimation", ("s", "calls")),
    ("influence.evaluate.evaluate_revenue", ("s", "calls")),
]
_SETUP_LAYERS = ("graphs.generators.powerlaw_edges", "graphs.tic.edge_probs",
                 "graphs.csr.build_csr", "costs.incentives.seed_costs")
SETUP_METRICS = tuple(f"{n}.s" for n in _SETUP_LAYERS) + (
    "influence.rrset.sigma.s", "influence.eval_rr.s")


def _solve_layers(tracer: Tracer, selfs, ops: set) -> dict:
    agg: dict = defaultdict(float)
    for span, st in selfs:
        if span[3] in ops:
            agg[(span[2], "s")] += st
            agg[(span[2], "calls")] += 1
            for k, v in span[6].items():
                agg[(span[2], k)] += v
    m = {f"{name}.{f}": (agg[(name, f)], "s" if f == "s" else "count")
         for name, fields in _SOLVE_LAYERS for f in fields}
    sp = agg[("influence.rrset.generate_spark", "sets")]
    lo = agg[("influence.rrset.generate_local", "sets")]
    m["influence.rrset.local_share"] = (lo / (sp + lo) if sp + lo else 0.0, "ratio")
    gain = sum(tracer.counts[o]["core.model.gain"] for o in ops)
    add = sum(tracer.counts[o]["core.model.add"] for o in ops)
    m["core.model.gain.calls"] = (gain, "count")
    m["core.model.add.calls"] = (add, "count")
    m["core.model.accept_ratio"] = (add / gain if gain else 0.0, "ratio")
    rma = "core.rma.rm_without_oracle"
    m["core.rma.self_s"] = (agg[(rma, "s")], "s")
    for f in ("rounds", "rr_sets", "stopped_by.beta", "stopped_by.theta_max", "stopped_by.cap"):
        m[f"core.rma.{f}"] = (agg[(rma, f)], "count")
    ti = "baselines.ti_carm.ti_rm"
    m["baselines.ti_carm.ti_rm.self_s"] = (agg[(ti, "s")], "s")
    m["baselines.ti_carm.regenerations"] = (agg[(ti, "regenerations")], "count")
    m["baselines.ti_carm.rr_sets"] = (agg[(ti, "rr_sets")], "count")
    return m


def _setup_layers(selfs, op: str) -> dict:
    """Setup self times of one repetition. RR generation inside the instance
    build is the singleton-spread collection; under ``influence.eval_rr`` it
    is the evaluation collection."""
    by_id = {sp[0]: sp for sp, _ in selfs}

    def in_eval(sp):
        while sp is not None:
            if sp[2] == "influence.eval_rr":
                return True
            sp = by_id.get(sp[1])
        return False

    t = dict.fromkeys(SETUP_METRICS, 0.0)
    for sp, st in selfs:
        if sp[3] != op or sp[2] == CHECK_SPAN:
            continue
        if in_eval(sp):
            t["influence.eval_rr.s"] += st
        elif sp[2] in ("influence.rrset.generate_spark", "influence.evaluate.singleton_spreads"):
            t["influence.rrset.sigma.s"] += st
        elif sp[2] in _SETUP_LAYERS:
            t[f"{sp[2]}.s"] += st
    return t


def _counts_only(m: dict) -> dict:
    return {k: v for k, v in m.items() if v[1] != "s"}


def layer_metrics(tracer: Tracer, wl: Workload, traced: list, ref: dict):
    """(metrics, problems): setup layers as the median over setup repetitions,
    solve layers as the median over traced passes."""
    selfs = tracer.self_times()
    reps = [_setup_layers(selfs, f"setup{r}") for r in range(SETUP_REPS)]
    m = {k: (statistics.median(r[k] for r in reps), "s") for k in SETUP_METRICS}

    solve_idx = [k for k, op in enumerate(wl.ops) if op.solve]
    per_pass, traced_solve, problems = [], [], []
    for p, results in enumerate(traced):
        ops = {f"p{p}.{k}" for k in solve_idx}
        per_pass.append(_solve_layers(tracer, selfs, ops))
        solve = sum(results[k].wall_s for k in solve_idx)
        op_spans = sum(sp[5] - sp[4] for sp, _ in selfs
                       if sp[3] in ops and sp[2].startswith("op."))
        covered = sum(st for sp, st in selfs if sp[3] in ops)
        traced_solve.append(solve)
        # The self times of every span under the ops add up to the op spans,
        # which enclose the timed calls.
        if abs(covered - op_spans) > 1e-6 or op_spans < solve:
            problems.append(f"traced pass {p}: self times sum to {covered:.6f} s, "
                            f"op spans {op_spans:.6f} s, timed calls {solve:.6f} s")
        if _counts_only(per_pass[p]) != _counts_only(per_pass[0]):
            problems.append(f"traced pass {p}: counts differ from traced pass 0")
    for k, (_, unit) in per_pass[0].items():
        m[k] = (statistics.median(pp[k][0] for pp in per_pass), unit)
    m["trace.overhead_s"] = (statistics.median(traced_solve) - ref["solve_s"], "s")
    return m, problems
