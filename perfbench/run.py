"""Repository benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload rma_flixster --seed 0 --seconds 5 --trace 0

Run from the root of a checkout. The run starts its own SparkSession on a
pinned master, sets the workload up, runs it for ``--seconds``, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(machine context, per-pass numbers and, when traced, every span) goes to
``.bench_out/``. The exit code is 0 only if every op passed its checks.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# The parallelism is pinned because RR samples depend on how Spark splits
# the task range: with defaultParallelism fixed, the same seed gives the same
# RR sets whatever the core count. Two task threads leave cores for the
# driver and the JVM; on 4 cores, local[4] doubled the run-to-run spread of
# solve_s and of RR throughput against local[2].
MAX_THREADS = 2
PARALLELISM = 4
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"


def start_spark():
    """Local SparkSession whose files stay under ``.bench_out/``."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # spark-submit first runs a launcher JVM, which takes only these options.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{threads}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.default.parallelism", str(PARALLELISM))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        # The JVM exits when its stdin closes.
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def warm_up(spark) -> float:
    """The first Spark job of a session runs about twice as slow as later
    ones; run a small mapInPandas + Arrow collect before anything is timed."""
    import pandas as pd

    def ident(batches):
        for b in batches:
            yield pd.DataFrame({"id": b["id"] * 2})

    t0 = time.perf_counter()
    for _ in range(2):
        spark.range(0, 20_000, numPartitions=PARALLELISM).mapInPandas(
            ident, schema="id long"
        ).toPandas()
    return time.perf_counter() - t0


def context(spark, workload: str, seed: int) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    sc = spark.sparkContext
    par = sc.defaultParallelism
    return dict(
        workload=workload,
        seed=seed,
        nproc=os.cpu_count(),
        spark_master=sc.master,
        default_parallelism=par,
        # generate_rr_collection's partition count for calls of 1600+ sets
        rr_partitions=2 * par,
        driver_memory=sc.getConf().get("spark.driver.memory", "default"),
        python=platform.python_version(),
        numpy=numpy.__version__,
        pandas=pandas.__version__,
        pyarrow=pyarrow.__version__,
        pyspark=pyspark.__version__,
        java=sc._jvm.java.lang.System.getProperty("java.version"),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Arrow's default jemalloc pool returns freed pages on a timer, which made
    # peak_rss_mb vary by 11% between runs of one seed; the system allocator
    # returns them at once. Set before anything imports pyarrow.
    os.environ["ARROW_DEFAULT_MEMORY_POOL"] = "system"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    spark = start_spark()
    try:
        start_s = time.perf_counter() - t0
        warm_s = warm_up(spark)
        ctx = dict(context(spark, args.workload, args.seed),
                   spark_start_s=start_s, warm_up_s=warm_s)
        res = bench.run(spark, bench.WORKLOADS[args.workload], seed=args.seed,
                        seconds=args.seconds, trace=bool(args.trace))
    finally:
        stop_spark(spark)

    key = "layer_metrics" if args.trace else "metrics"
    metrics = res.get(key, {}) if res["metrics"] else {}
    fail_frac = res["failed"] / res["attempted"]
    record = dict(context=ctx, trace=args.trace, fail_frac=fail_frac, **res)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))

    for p in res["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'fail_frac':48s} {fail_frac:>16.6g} ratio")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
