"""Inputs and job lists of the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``; the same seed
gives the same jobs.  The seed only moves parameter values: job counts, model
sizes, sweep grids and horizons are fixed, so the work per pass does not
depend on the seed.

A job is a callable that takes the ``lindlyap`` package and returns its raw
output.  Jobs look every library function up through its module at call
time, so a tracer that rebinds module attributes sees each call.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FAMILIES = ("TwoOscThermal", "TwoOscRWA", "OPO", "CascadedOPO", "OPOThermal", "TMTSS")

# (modes, damped chains per pass).  Most jobs are small; 14 of 100 have n >= 12
# so the 90th percentile falls inside the n = 12 group, and three reach n = 24.
CHAIN_LADDER = ((2, 18), (4, 14), (8, 6), (12, 6), (16, 5), (24, 3))
CATALOG_COPIES = 8  # analyse jobs per catalog family per pass
# Each sweep runs for two seeded documents, so the 6 sweeps are a fifth of the
# 31 cli_catalog jobs and the 90th percentile falls inside the sweep group.
SWEEP_COPIES = 2

# cli_catalog sweep options, given after ``sweep <document>``
README_SWEEP = (
    "--param", "zeta", "--range", "1.1:3:40",
    "--quantity", "env_separability_min_eig",
    "--threshold", "separability:env:zeta", "--threshold-range", "1.1:40",
)
STATE_SWEEP = (
    "--param", "nbar", "--range", "0.1:0.45:15",
    "--quantity", "state_separability_min_eig", "--quantity", "purity",
    "--threshold", "separability:state:zeta", "--threshold", "classicality:state:zeta",
    "--threshold-range", "1.06:40",
)
TWO_OSC_SWEEP = (
    "--param", "nbar", "--range", "0.05:1:20",
    "--quantity", "env_classicality_min_eig", "--quantity", "min_symplectic_eig",
    "--threshold", "classicality:env:zeta", "--threshold", "separability:env:zeta",
    "--threshold-range", "1e-6:50",
)
# known defect: an alias swept over a document written with per-mode names
ALIAS_PROBE_SWEEP = ("--param", "nbar", "--range", "0.1:0.5:5", "--quantity", "env_classicality_min_eig")

EVOLVE_T_END = 30.0  # horizon of the two CLI evolve jobs
DENSE_T_END = 3.0  # horizon of the API evolve with every step recorded
V0_SCALE = 5.0  # initial covariance V0 = V0_SCALE * I (the CLI default)


@dataclass
class Job:
    label: str  # job type; latencies are also reported per label
    run: Callable  # run(lindlyap) -> raw output
    data: dict = field(default_factory=dict)  # what the oracle needs


# ---------------------------------------------------------------- inputs


def catalog_params(family: str, rng: np.random.Generator) -> dict:
    """Seeded parameters inside each family's stable window and closed-form domain."""
    u = rng.uniform
    if family == "TwoOscThermal":  # symmetric, so the steady-state closed form applies
        omega, zeta, nbar = u(0.3, 0.7), u(0.4, 1.2), u(0.05, 0.5)
        return dict(omega1=omega, omega2=omega, kappa=u(0.8, 1.2), zeta1=zeta, zeta2=zeta,
                    nbar1=nbar, nbar2=nbar)
    if family == "TwoOscRWA":
        return dict(varpi=u(0.8, 1.2), Omega=u(0.2, 0.6), zeta1=u(0.4, 1.2), zeta2=u(0.4, 1.2),
                    nbar1=u(0.0, 0.6), nbar2=u(0.0, 0.6))
    if family == "OPO":
        kappa = u(0.8, 1.2)
        return dict(epsilon=kappa * u(-0.8, 0.8), kappa=kappa)
    if family == "CascadedOPO":
        kappa = u(0.8, 1.2)
        return dict(epsilon1=kappa * u(-0.7, 0.7), epsilon2=kappa * u(-0.7, 0.7), kappa=kappa)
    if family == "OPOThermal":
        kappa = u(0.8, 1.2)
        eps = kappa * u(0.02, 0.15)
        return dict(epsilon=eps, kappa=kappa, zeta=(eps + kappa) * u(1.2, 2.5), nbar=u(0.1, 0.5))
    if family == "TMTSS":
        return dict(r=u(0.2, 1.0), nbar=u(0.05, 0.5))
    raise ValueError(f"unknown family {family!r}")


def chain_arrays(L, n: int, rng: np.random.Generator) -> dict:
    """A damped chain: H = I + 0.2 A A^T and a thermal bath with rate > 0 on every mode.

    Draws again until the drift matrix is asymptotically stable, so every job
    has a steady state.
    """
    while True:
        a = rng.standard_normal((2 * n, 2 * n))
        hessian = np.eye(2 * n) + 0.2 * a @ a.T
        rates = rng.uniform(0.5, 1.5, n)
        occupations = rng.uniform(0.0, 0.5, n)
        dyn = chain_spec(L, hessian, rates, occupations).build()
        if np.linalg.eigvals(dyn.drift_matrix).real.max() < -1e-3:
            return dict(hessian=hessian, rates=rates, occupations=occupations)


def chain_spec(L, hessian, rates, occupations):
    n = len(rates)
    vectors = []
    for mode in range(n):
        vectors += L.thermal_bath(n, mode, float(rates[mode]), float(occupations[mode]))
    return L.ModelSpec(L.QuadraticHamiltonian(hessian), vectors)


def explicit_document(L, chain: dict) -> dict:
    spec = chain_spec(L, chain["hessian"], chain["rates"], chain["occupations"])
    return {
        "n": spec.n,
        "hessian": spec.hamiltonian.hessian.tolist(),
        "lindblad": [
            {"lambda_re": v.coupling.real.tolist(), "lambda_im": v.coupling.imag.tolist()}
            for v in spec.lindblad
        ],
    }


def write_document(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def run_cli(L, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = L.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_job(label: str, argv: list[str], **data) -> Job:
    return Job(label, lambda L: run_cli(L, argv), dict(data, argv=argv))


# ---------------------------------------------------------------- analyse_ladder


def half_split(L, n: int):
    return L.Partition(n, frozenset(range(n // 2, n)))


def criterion_kinds(L, n: int) -> list:
    kinds = [L.Uncertainty(), L.Classicality()]
    if n >= 2:
        half = half_split(L, n)
        kinds += [L.Separability(half), L.Steerability(half, 1), L.Steerability(half, 2)]
    return kinds


def analyse(L, family: str | None, params: dict | None, chain: dict | None) -> dict:
    """One model end to end: build, stability, steady state, criteria, normal form, engineering."""
    if family is not None:
        spec = L.catalog_build(family, params)
    else:
        spec = chain_spec(L, chain["hessian"], chain["rates"], chain["occupations"])
    dyn = spec.build()
    report = L.stability_check(dyn)
    cm = L.steady_covariance(dyn)
    kinds = criterion_kinds(L, dyn.n)
    state = [L.state_criterion(cm, kind) for kind in kinds]
    env = [L.environment_criterion(dyn, kind) for kind in kinds]
    normal = L.williamson_decompose(cm)
    lam = normal.lambda_matrix
    reservoir = L.engineer_covariant_target(lam, -0.5 * np.eye(lam.shape[0]), lam, normal.s)
    return dict(dyn=dyn, report=report, cm=cm, kinds=kinds, state=state, env=env,
                normal=normal, reservoir=reservoir)


def analyse_job(family, params, chain) -> Job:
    label = f"analyse:{family}" if family else f"analyse:chain_n{len(chain['rates'])}"
    data = dict(family=family, params=params, chain=chain)
    return Job(label, lambda L: analyse(L, family, params, chain), data)


def analyse_ladder_jobs(L, rng, workdir) -> list[Job]:
    jobs = []
    for family in FAMILIES:
        for _ in range(CATALOG_COPIES):
            jobs.append(analyse_job(family, catalog_params(family, rng), None))
    for n, count in CHAIN_LADDER:
        for _ in range(count):
            jobs.append(analyse_job(None, None, chain_arrays(L, n, rng)))
    return jobs


def analyse_ladder_warmup(L, rng, workdir) -> None:
    analyse(L, "OPO", catalog_params("OPO", rng), None)


# ---------------------------------------------------------------- cli_catalog


def readme_sweep_params(rng) -> dict:
    # the stability edge epsilon + kappa stays below the sweep start 1.1
    kappa = rng.uniform(0.95, 1.03)
    return dict(epsilon=rng.uniform(0.03, 0.06), kappa=kappa, zeta=rng.uniform(1.5, 1.9),
                nbar=rng.uniform(0.25, 0.35))


def state_sweep_params(rng) -> dict:
    # the stability edge stays below the bracket start 1.06, and every row of
    # the nbar grid keeps a state verdict flip inside the bracket
    return dict(epsilon=rng.uniform(0.02, 0.04), kappa=rng.uniform(0.97, 1.0),
                zeta=rng.uniform(1.5, 1.9), nbar=0.3)


def two_osc_alias_params(rng) -> dict:
    return dict(omega=rng.uniform(0.3, 0.7), kappa=rng.uniform(0.8, 1.2),
                zeta=rng.uniform(0.5, 1.0), nbar=0.3)


def cli_catalog_jobs(L, rng, workdir) -> list[Job]:
    doc = lambda name, family, params: write_document(  # noqa: E731
        workdir, name, {"catalog": family, "params": params})
    jobs = []
    for copy in range(SWEEP_COPIES):
        readme = readme_sweep_params(rng)
        state = state_sweep_params(rng)
        alias = two_osc_alias_params(rng)
        jobs += [
            cli_job("cli:sweep_readme", ["sweep", doc(f"readme{copy}.json", "OPOThermal", readme), *README_SWEEP],
                    family="OPOThermal", params=readme, sweep="readme"),
            cli_job("cli:sweep_state", ["sweep", doc(f"state{copy}.json", "OPOThermal", state), *STATE_SWEEP],
                    family="OPOThermal", params=state, sweep="state"),
            cli_job("cli:sweep_two_osc",
                    ["sweep", doc(f"alias{copy}.json", "TwoOscThermal", alias), *TWO_OSC_SWEEP],
                    family="TwoOscThermal", params=alias, sweep="two_osc"),
        ]
    for family in FAMILIES:
        params = catalog_params(family, rng)
        path = doc(f"{family}.json", family, params)
        for command, extra in (("steady", []), ("stability", []), ("criteria", ["--json"]),
                               ("williamson", [])):
            jobs.append(cli_job(f"cli:{command}", [command, path, *extra],
                                family=family, params=params, command=command))
    tmtss = catalog_params("TMTSS", rng)
    kv = ",".join(f"{k}={v!r}" for k, v in tmtss.items())
    jobs.append(cli_job("cli:engineer", ["engineer", "--catalog", "TMTSS", "--params", kv, "--json"],
                        family="TMTSS", params=tmtss, command="engineer"))
    return jobs


def cli_catalog_warmup(L, rng, workdir) -> None:
    path = write_document(workdir, "warmup.json",
                          {"catalog": "OPO", "params": catalog_params("OPO", rng)})
    run_cli(L, ["stability", path])


def alias_probe_job(L, rng, workdir) -> Job:
    """The per-mode TwoOscThermal document swept over its alias ``nbar``."""
    alias = two_osc_alias_params(rng)
    per_mode = dict(omega1=alias["omega"], omega2=alias["omega"], kappa=alias["kappa"],
                    zeta1=alias["zeta"], zeta2=alias["zeta"], nbar1=0.3, nbar2=0.3)
    path = write_document(workdir, "per_mode.json", {"catalog": "TwoOscThermal", "params": per_mode})
    return cli_job("probe:alias_sweep", ["sweep", path, *ALIAS_PROBE_SWEEP])


# ---------------------------------------------------------------- evolve_relax


def demo_params(rng) -> dict:
    return dict(omega=rng.uniform(0.4, 0.6), kappa=rng.uniform(0.9, 1.1),
                zeta=rng.uniform(0.6, 0.8), nbar=rng.uniform(0.2, 0.4))


def dense_relax(L, params: dict) -> dict:
    """Demo 01 on dense recording: solve, quadrature, and every RK4 step recorded."""
    dyn = L.catalog_build("TwoOscThermal", params).build()
    cm = L.steady_covariance(dyn)
    quad = L.solve_integral(dyn.drift_matrix, dyn.diffusion)
    dim = dyn.drift_matrix.shape[0]
    traj = L.evolve(dyn, np.zeros(dim), V0_SCALE * np.eye(dim), t_end=DENSE_T_END, record_every=1)
    return dict(cm=cm, quad=quad, traj=traj)


def evolve_relax_jobs(L, rng, workdir) -> list[Job]:
    readme = readme_sweep_params(rng)
    chain = chain_arrays(L, 4, rng)
    demo = demo_params(rng)
    readme_doc = write_document(workdir, "evolve_readme.json", {"catalog": "OPOThermal", "params": readme})
    chain_doc = write_document(workdir, "evolve_chain.json", explicit_document(L, chain))
    t_end = repr(EVOLVE_T_END)
    return [
        cli_job("evolve:cli_readme_csv", ["evolve", readme_doc, "--t-end", t_end, "--stride", "100"],
                family="OPOThermal", params=readme, command="evolve_csv"),
        cli_job("evolve:cli_chain_json", ["evolve", chain_doc, "--t-end", t_end, "--json"],
                chain=chain, command="evolve_json"),
        Job("evolve:api_dense", lambda L: dense_relax(L, demo), dict(params=demo)),
    ]


def evolve_relax_warmup(L, rng, workdir) -> None:
    dyn = L.catalog_build("OPO", catalog_params("OPO", rng)).build()
    L.evolve(dyn, np.zeros(2), np.eye(2), t_end=0.05)


# ---------------------------------------------------------------- host-speed references
# Fixed numpy-only kernels, timed between a workload's jobs.  The speed of the
# shared host drifts by up to a factor of 2 for minutes at a time, and a
# reference of the same kind of work drifts with it, so a pass time divided
# by the reference time measures the program rather than the host.  Their
# inputs are constant, never drawn from the workload seed, and they call
# nothing in lindlyap, so no change to the package moves them.

_REF_DRIFT = -np.eye(4) + 0.1 * np.random.default_rng(20160726).standard_normal((4, 4))
REF_LOOP_STEPS = 5000
REF_DENSE_SIZE = 1000  # the Kronecker system of a 22-mode Lyapunov solve has 1936 unknowns
REF_DENSE_REPEATS = 2


def loop_reference() -> float:
    """Interpreter-bound small-array work, like an RK4 step: midpoint steps of dV/dt = AV + VAᵀ + I."""
    a, v, x, h = _REF_DRIFT, np.eye(4), np.ones(4), 1e-3
    source = np.eye(4)
    for _ in range(REF_LOOP_STEPS):
        g = a @ v
        w = v + 0.5 * h * (g + g.T + source)
        g = a @ w
        v = v + h * (g + g.T + source)
        v = 0.5 * (v + v.T)
        x = x + h * (a @ x)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise RuntimeError("reference loop diverged")
    return float(v.trace())


@functools.cache
def _dense_system() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, so the set-up of a run does not pay for it
    rng = np.random.default_rng(20160727)
    return rng.standard_normal((REF_DENSE_SIZE,) * 2) + 40.0 * np.eye(REF_DENSE_SIZE), np.ones(REF_DENSE_SIZE)


def dense_reference() -> float:
    """LAPACK-bound work, like the Kronecker Lyapunov solve at n >= 12: dense LU solves of a fixed system."""
    a, b = _dense_system()
    return math.fsum(np.linalg.solve(a, b).sum() for _ in range(REF_DENSE_REPEATS))


# workload: (job list, warm-up, host-speed reference of the workload's dominant kind of work)
BUILDERS = {
    "analyse_ladder": (analyse_ladder_jobs, analyse_ladder_warmup, dense_reference),
    "cli_catalog": (cli_catalog_jobs, cli_catalog_warmup, loop_reference),
    "evolve_relax": (evolve_relax_jobs, evolve_relax_warmup, loop_reference),
}
