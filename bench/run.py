"""Benchmark of lindlyap: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload analyse_ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # every workload in turn

``--workload`` is required.  ``all`` also runs ``cli_catalog``, which
BENCHMARK.json does not gate, and names each metric ``<workload>.<metric>``
in its summary line.

Run it from anywhere in a checkout that holds ``src/lindlyap``; the package
is imported from that source tree.  Each workload runs in fresh child
processes (bench/child.py) with BLAS pinned to one thread: several set-up
runs, for the median set-up time, and one measured run.  The metric names
and units are those declared in BENCHMARK.json.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The exit code is 0 when every output passed the
oracle, 1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("analyse_ladder", "cli_catalog", "evolve_relax")
SETUP_SAMPLES = 5  # set-ups per workload run; setup_s is their median
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def budget_s(seconds: float) -> float:
    """Wall-time budget of one workload run, every child included.

    Beyond the timed seconds a run spends up to half a pass, the set-ups, and
    with tracing the traced pass, self-test and solve probe: about 30 s on the
    slowest workload, so 100 s leaves room for a host running at half speed.
    """
    return seconds + 100


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--root", ROOT]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the child started")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload}: child exceeded the run's {budget_s(seconds):.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, declared) -> dict:
    deadline = time.monotonic() + budget_s(seconds)
    setups = [spawn(workload, seed, seconds, trace, deadline, setup_only=True)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, seconds, trace, deadline)
    setups.append(main["setup"])

    latencies = [x for one_pass in main["latencies"] for x in one_pass]
    setup_median = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    if trace:
        metrics = dict(main["layers"])
        for key in ("import_ms", "inputs_ms", "warmup_ms"):
            metrics[f"setup.{key}"] = setup_median[key]
    else:
        metrics = {
            "setup_s": setup_median["setup_s"],
            "wall_per_ref": wall_per_ref(main),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {missing}")
    report(workload, seed, seconds, trace, main, setups, latencies, metrics, declared)
    return {"correct": main["failed"] == 0 and not main["failures"],
            "attempted": main["attempted"], "failed": main["failed"],
            "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared}}


def wall_per_ref(main) -> float:
    """Time of one pass in units of the host-speed reference.

    Each job's latency is divided by the mean of the reference times taken
    just before and just after it; the metric sums, over the job list, each
    job's median of that ratio over the timed passes.
    """
    return math.fsum(statistics.median(units) for units in zip(*main["ref_units"]))


def report(workload, seed, seconds, trace, main, setups, latencies, metrics, declared) -> None:
    env = main["env"]
    print(f"== {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']} (OpenBLAS {env['numpy_openblas']}), "
          f"scipy {env['scipy']} (OpenBLAS {env['scipy_openblas']}), "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, BLAS threads {env['blas_threads']}, "
          f"nproc {env['nproc']}")
    walls = ", ".join(f"{w:.3f}" for w in main["pass_walls"])
    refs = [r for one_pass in main["pass_refs"] for r in one_pass]
    print(f"closed loop, one job at a time: {main['jobs']} jobs per pass, {len(main['pass_walls'])} "
          f"timed passes ({walls} s), {len(latencies)} job samples, {len(setups)} set-ups")
    print(f"host-speed reference {main['reference']}: {len(refs)} timings between jobs, "
          f"median {1e3 * statistics.median(refs):.3f} ms (min {1e3 * min(refs):.3f}, max {1e3 * max(refs):.3f})")
    for name, unit in declared.items():
        print(f"  {name:<44s} {metrics[name]!r:>24} {unit}")
    # Printed, not gated: the error rate is 0 by design, and raw times and the
    # latency percentiles spread from run to run on a shared host by about as
    # much as the largest bound BENCHMARK.json may set (bench/README.md).
    beyond = len(latencies) - int(0.9 * len(latencies))
    print(f"  {'wall_s (not gated)':<44s} {statistics.median(main['pass_walls'])!r:>24} s")
    print(f"  {'job_p50_ms (not gated)':<44s} {1e3 * statistics.median(latencies)!r:>24} ms")
    print(f"  {'job_p90_ms (not gated)':<44s} {1e3 * statistics.quantiles(latencies, n=10)[8]!r:>24} ms"
          f"  ({beyond} of {len(latencies)} samples beyond)")
    print(f"  {'error_rate (not gated)':<44s} {main['failed']}/{main['attempted']}")
    by_label: dict[str, list[float]] = {}
    for one_pass in main["latencies"]:
        for label, lat in zip(main["labels"], one_pass):
            by_label.setdefault(label, []).append(lat)
    print("median latency by job type: " + ", ".join(
        f"{label} {1e3 * statistics.median(v):.3f} ms (x{len(v)})" for label, v in sorted(by_label.items())))
    if trace:
        st = main["selftest"]
        print(f"tracer self-test on the README sweep: {'passed' if st['passed'] else 'FAILED'}; "
              f"counts {st['counts']}; seed counts reproduced: {st['seed_counts_reproduced']}")
    defect = main["known_defect"]
    state = "still present" if defect["present"] else "no longer reproduces"
    print(f"known failure (untimed, not counted): {defect['name']}: {state}: {defect['detail']}")
    for failure in main["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="timed seconds (BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lindlyap", "__init__.py")):
        sys.stderr.write(f"error: no lindlyap source tree at {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    results = {}
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            results[workload] = run_workload(workload, args.seed, seconds, args.trace, declared)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
