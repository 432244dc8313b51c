"""One workload run in a fresh process, started by run.py.

Order of work, and what each step measures:

1. set-up: ``import lindlyap``, input generation from the seed, one warm-up
   job on a small input.  The time from process spawn to the first timed job
   is ``setup_s``.  With ``--setup-only`` the process stops here.
2. timed passes of the workload's fixed job list, untraced, repeated until
   ``--seconds`` have passed: pass wall times, per-job latencies, peak RSS,
   and the times of the workload's host-speed reference, run between jobs.
3. with ``--trace 1``: one traced pass (layer spans and eigensolver counts),
   the tracer self-test on the README sweep, and a Lyapunov-solve size probe.
4. untimed and untraced: the known-defect probe and the correctness oracle,
   which also checks the self-test sweep's cells.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before numpy is imported, so setup.import_ms covers it

import argparse
import ctypes
import dataclasses
import enum
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback

import numpy as np

README_PARAMS = dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)  # the README sweep example
# layer call counts of the README sweep at the commit that introduced this benchmark
SEED_SWEEP_COUNTS = {
    "catalog.catalog_build": 2202,
    "model.build_dynamics": 2200,
    "model.stability_check": 4400,
    "criteria.environment_criterion": 2200,
}
# (modes, timed repeats) of the Lyapunov-solve size probe
SOLVE_PROBE = ((2, 21), (4, 21), (8, 11), (12, 7), (16, 5), (24, 3))
CRITERIA = {"criteria.state_criterion", "criteria.environment_criterion"}
DRIFT_EIGENSOLVERS = {"numpy.linalg.eigvals", "scipy.linalg.schur"}
NORMAL_FORM = {"williamson.symplectic_spectrum", "williamson.williamson_decompose"}
REF_EVERY_S = 1.0  # job time between two timings of the host-speed reference


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout holding src/lindlyap")
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = lambda cfg: cfg["Build Dependencies"]["blas"].get("version")  # noqa: E731
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def digest(obj, h=None):
    """Content hash of a job output: arrays, dataclasses, enums and containers."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif isinstance(obj, (set, frozenset)):
        h.update(repr(sorted(obj)).encode())
    elif isinstance(obj, enum.Enum):
        h.update(repr(obj.value).encode())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def digests(outs):
    return [(None if out is None else digest(out), err) for out, err in outs]


def run_job(L, job):
    try:
        return job.run(L), None
    except Exception:  # a failing job is counted, the run goes on
        return None, traceback.format_exc(limit=4)


def time_reference(reference) -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def timed_passes(L, jobs, reference, seconds):
    """Untraced passes over the job list, at least one, for about ``seconds``.

    A further pass starts only if it is expected to end less than half a pass
    after ``seconds``, so a run overshoots its measuring time by at most that.
    The host-speed ``reference`` is timed once before the first pass, after
    each job that brings the job time since its last timing to REF_EVERY_S,
    and after each pass's last job.  Each job's latency is also given over
    the mean of the two reference times around it, in ``ref_units``.  A
    pass's wall time is the sum of its job latencies, so it leaves the
    reference out.  The first pass keeps its outputs for the oracle; later
    passes keep only their digests, taken after the pass is timed, so memory
    does not grow with the number of passes.
    """
    start = time.monotonic()
    passes = []
    before = time_reference(reference)
    while True:
        lat, outs, refs, ref_units, pending = [], [], [], [], []
        for i, job in enumerate(jobs):
            j0 = time.perf_counter()
            outs.append(run_job(L, job))
            lat.append(time.perf_counter() - j0)
            pending.append(lat[-1])
            if math.fsum(pending) >= REF_EVERY_S or i == len(jobs) - 1:
                after = time_reference(reference)
                ref_units.extend(x / (0.5 * (before + after)) for x in pending)
                refs.append(after)
                before, pending = after, []
        passes.append({"wall": math.fsum(lat), "refs": refs, "ref_units": ref_units, "lat": lat,
                       "outs": outs if not passes else digests(outs)})
        mean_pass = statistics.fmean(p["wall"] for p in passes)
        if time.monotonic() - start + 0.5 * mean_pass >= seconds:
            return passes


def traced_pass(L, jobs):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    outs = []
    try:
        p0 = time.perf_counter()
        for job in jobs:
            with tracer.span("job"):
                outs.append(run_job(L, job))
        wall = time.perf_counter() - p0
    finally:
        tracer.uninstall()
    return tracer, wall, outs


def solve_residual(L, args, kwargs, p) -> float:
    problem = args[0]
    if isinstance(problem, L.LyapunovProblem):
        a, q = problem.generator, problem.source
    else:
        a, q = problem, args[1] if len(args) > 1 else kwargs["source"]
    return float(np.abs(a @ p + p @ a.conj().T + q).max() / max(np.abs(q).max(), 1e-300))


def tracer_selftest(L, workdir) -> dict:
    """README sweep, traced: the tracer's calls against sys.setprofile's, per layer function.

    The sweep's job and output are returned, so the oracle checks its cells
    after the tracer is removed.

    Also measures catalog builds per threshold cell as the build count of the
    sweep minus that of the same sweep without its threshold column, over the
    number of threshold cells.
    """
    import importlib

    from tracer import LAYER_FUNCTIONS, Tracer, profile_call_counts
    from workloads import README_SWEEP, Job, run_cli, write_document

    originals = {f"{mod}.{fn}": getattr(importlib.import_module(f"lindlyap.{mod}"), fn)
                 for mod, fns in LAYER_FUNCTIONS.items() for fn in fns}
    path = write_document(workdir, "selftest.json", {"catalog": "OPOThermal", "params": README_PARAMS})

    def traced(argv, run):
        tracer = Tracer()
        outs = []
        tracer.install()
        try:
            counts = run(lambda: outs.append(run_cli(L, argv)))
        finally:
            tracer.uninstall()
        return tracer, counts, outs[0]

    argv = ["sweep", path, *README_SWEEP]
    full, profiled, out = traced(argv, lambda thunk: profile_call_counts(originals, thunk))
    no_threshold = README_SWEEP[:6]  # --param, --range and --quantity only
    plain, _, _ = traced(["sweep", path, *no_threshold], lambda thunk: thunk())
    rows = int(README_SWEEP[3].split(":")[2])
    traced_counts = {name: full.calls(name) for name in originals}
    missed = {name: profiled[name] - traced_counts[name]
              for name in originals if profiled[name] != traced_counts[name]}
    builds = full.calls("catalog.catalog_build") - plain.calls("catalog.catalog_build")
    return {
        "passed": not missed,
        "missed": missed,
        "counts": {name: traced_counts[name] for name in SEED_SWEEP_COUNTS},
        "seed_counts_reproduced": all(traced_counts[k] == v for k, v in SEED_SWEEP_COUNTS.items()),
        "builds_per_threshold_cell": builds / rows,
        "job": Job("selftest:sweep_readme", None,
                   dict(family="OPOThermal", params=README_PARAMS, sweep="readme", argv=argv)),
        "out": out,
    }


def solve_probe(L, seed) -> dict:
    """Median ``lyapunov.solve`` time per size on seeded chains, and the n = 24 allocation peak."""
    import tracemalloc

    from workloads import chain_arrays, chain_spec

    rng = np.random.default_rng([seed, 2])
    out = {}
    for n, repeats in SOLVE_PROBE:
        chain = chain_arrays(L, n, rng)
        dyn = chain_spec(L, chain["hessian"], chain["rates"], chain["occupations"]).build()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            L.lyapunov.solve(dyn.drift_matrix, dyn.diffusion)
            times.append(time.perf_counter() - t0)
        out[f"lyapunov.solve.p50_ms.n{n}"] = 1e3 * statistics.median(times)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        L.lyapunov.solve(dyn.drift_matrix, dyn.diffusion)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out[f"lyapunov.solve.peak_alloc_mb.n{n}"] = peak / 1e6
    return out


def layer_metrics(L, tracer, jobs, traced_wall, untraced_wall, selftest, probe) -> dict:
    from oracle import nan_cells

    metrics = {}
    totals = tracer.layer_totals()
    for name, t in totals.items():
        for key, value in t.items():
            metrics[f"{name}.{key}"] = value
    metrics.update(probe)
    residuals = [solve_residual(L, a, k, p) for a, k, p in tracer.solves]
    metrics["lyapunov.solve.max_rel_residual"] = max(residuals, default=0.0)
    verdicts = sum(totals[name]["calls"] for name in CRITERIA)
    eigvalsh = tracer.counted_calls({"numpy.linalg.eigvalsh"}, inside=CRITERIA)
    metrics["criteria.eigvalsh_per_verdict"] = eigvalsh / verdicts if verdicts else 0.0
    drift = tracer.counted_calls(DRIFT_EIGENSOLVERS, outside=NORMAL_FORM)
    metrics["model.eigvals_per_job"] = drift / len(jobs)
    metrics["cli.sweep.builds_per_threshold_cell"] = selftest["builds_per_threshold_cell"]
    metrics["cli.sweep.nan_cells"] = nan_cells(selftest["out"]["stdout"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return metrics


def known_defect_probe(L, rng, workdir) -> dict:
    from oracle import nan_cells
    from workloads import alias_probe_job

    job = alias_probe_job(L, rng, workdir)
    out, err = run_job(L, job)
    if err is not None:
        return {"name": "alias_sweep_per_mode_document", "present": False, "detail": err}
    cells = nan_cells(out["stdout"]) if out["code"] == 0 else 0
    total = len(out["stdout"].strip().splitlines()) - 1
    return {
        "name": "alias_sweep_per_mode_document",
        "present": out["code"] == 0 and total > 0 and cells == total,
        "detail": f"sweep --param nbar over per-mode TwoOscThermal names: {cells}/{total} nan cells, "
                  f"exit {out['code']}",
    }


def check_outputs(L, jobs, first, later):
    """Oracle on the first pass's outputs; every later output digest must equal the first's."""
    import oracle

    failures, attempted, failed = [], 0, 0
    verdicts = []
    for job, (out, err) in zip(jobs, first):
        if err is not None:
            verdicts.append((None, [f"{job.label}: raised\n{err}"]))
            continue
        try:
            errors = oracle.check_job(L, job, out)
        except Exception:
            errors = [f"{job.label}: oracle could not read the output\n{traceback.format_exc(limit=4)}"]
        verdicts.append((digest(out), errors))
    for outs in [digests(first)] + later:
        for job, (out_digest, err), (ref_digest, errors) in zip(jobs, outs, verdicts):
            attempted += 1
            if err is not None:
                problem = [f"{job.label}: raised\n{err}"]
            elif ref_digest is None or out_digest != ref_digest:
                problem = errors or [f"{job.label}: output differs from the first pass"]
            else:
                problem = errors
            if problem:
                failed += 1
                failures.extend(problem)
    return attempted, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import lindlyap as L
    import lindlyap.cli  # noqa: F401  (cli jobs call L.cli.main)

    import_ms = 1e3 * (time.perf_counter() - START)
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(L.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: lindlyap imported from {L.__file__}, not from {src}\n")
        return 2

    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    make_jobs, warmup, reference = BUILDERS[args.workload]
    work_root = os.path.join(args.root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        t1 = time.perf_counter()
        jobs = make_jobs(L, np.random.default_rng(args.seed), workdir)
        t2 = time.perf_counter()
        warmup(L, np.random.default_rng([args.seed, 1]), workdir)
        t3 = time.perf_counter()
        first_job = time.monotonic()
        setup = {
            "setup_s": first_job - args.spawned_at,
            "import_ms": import_ms,
            "inputs_ms": 1e3 * (t2 - t1),
            "warmup_ms": 1e3 * (t3 - t2),
        }
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0

        reference()  # after set-up is timed: the reference's first call is not timed either
        passes = timed_passes(L, jobs, reference, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result = {
            "setup": setup,
            "env": environment(),
            "jobs": len(jobs),
            "labels": [job.label for job in jobs],
            "pass_walls": [p["wall"] for p in passes],
            "pass_refs": [p["refs"] for p in passes],
            "ref_units": [p["ref_units"] for p in passes],
            "reference": reference.__name__,
            "latencies": [p["lat"] for p in passes],
            "peak_rss_mb": peak_rss_mb,
        }
        later = [p["outs"] for p in passes[1:]]
        if args.trace:
            tracer, traced_wall, outs = traced_pass(L, jobs)
            later.append(digests(outs))
            selftest = tracer_selftest(L, workdir)
            probe = solve_probe(L, args.seed)
            untraced_wall = statistics.median(result["pass_walls"])
            result["selftest"] = selftest
            result["layers"] = layer_metrics(L, tracer, jobs, traced_wall, untraced_wall, selftest, probe)
        result["known_defect"] = known_defect_probe(L, np.random.default_rng([args.seed, 3]), workdir)
        attempted, failed, failures = check_outputs(L, jobs, passes[0]["outs"], later)
        if args.trace:
            selftest = result["selftest"]
            checked = check_outputs(L, [selftest.pop("job")], [(selftest.pop("out"), None)], [])
            attempted += checked[0]
            failed += checked[1]
            failures += checked[2]
            if not selftest["passed"]:
                failures.append(f"tracer self-test missed calls: {selftest['missed']}")
        result.update(attempted=attempted, failed=failed, failures=failures[:20])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
