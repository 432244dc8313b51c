"""Independent checks of every benchmark output.

The references are computed here, not by the code under test: stationary
covariances by scipy's Bartels-Stewart solver, criterion test matrices from
their definitions, symplectic spectra from the eigenvalues of J M,
trajectories from the closed form V(t) = V_inf + e^{Gt} (V0 - V_inf) e^{G^T t},
and catalog results from the closed forms of ``catalog_analytic``.  Models
are still assembled by ``lindlyap`` (catalog_build / build), the definition
under test being the numerics, and the catalog closed forms pin the models.

The oracle runs after the timed region, with no tracer installed, so its
calls inflate neither timings nor layer counts.  Each check returns a list of
mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.optimize import linear_sum_assignment

from workloads import DENSE_T_END, EVOLVE_T_END, V0_SCALE, chain_spec

# Stated tolerances, all relative to the scale of the compared quantity.
STEADY_RTOL = 1e-8  # the package's own residual_tol
RESIDUAL_RTOL = 1e-8  # ||G V + V G^T + D|| / ||D||
SPECTRUM_RTOL = 1e-9
NORMAL_FORM_RTOL = 1e-6  # Williamson identities, engineered steady state (scale grows with cond S)
THRESHOLD_RTOL = 1e-7  # bisected flip against its closed form
FLIP_STEP = 1e-6  # relative offset of the verdict-flip probes around a state threshold
TRAJECTORY_RTOL = 1e-9  # RK4 rows against the exact propagator
QUADRATURE_RTOL = 1e-4  # Simpson quadrature against the direct solve (about 1e-5 at n = 16)
EIG_ZERO_BAND = 1e-9  # default Tolerances.eig_zero_band, for verdict consistency


def scale(m) -> float:
    return max(1.0, float(np.abs(m).max()))


def rel_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale(b)


def sympl_form(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def reference_cm(g, d) -> np.ndarray:
    v = solve_continuous_lyapunov(g, -d)
    return 0.5 * (v + v.T)


def rel_residual(g, v, d) -> float:
    return float(np.abs(g @ v + v @ g.T + d).max()) / scale(d)


def symplectic_eigs(m) -> np.ndarray:
    """Ascending symplectic eigenvalues: |eigenvalues of J M|, each pair once."""
    ev = np.sort(np.abs(np.linalg.eigvals(sympl_form(m.shape[0] // 2) @ m).imag))
    return ev[::2]


def spectra_match(got, want) -> float:
    """Largest distance under the best one-to-one pairing of two spectra, relative to their scale."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    if got.shape != want.shape:
        return math.inf
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) / scale(np.abs(want))


def xi(kind: str, n: int, flipped=(), steered=()) -> np.ndarray:
    """Criterion test matrix built from its definition."""
    j = sympl_form(n)
    if kind == "uncertainty":
        return 1j * j
    if kind == "classicality":
        return -np.eye(2 * n, dtype=complex)
    if kind == "separability":  # i T J T, T flips the momenta of part two
        t = np.ones(2 * n)
        t[[n + k for k in flipped]] = -1.0
        return 1j * (t[:, None] * j * t[None, :])
    if kind == "steerability":  # i J on the steered modes only
        keep = np.zeros(2 * n)
        keep[[k for k in steered] + [n + k for k in steered]] = 1.0
        return 1j * (keep[:, None] * j * keep[None, :])
    raise ValueError(kind)


def env_tested(g, d, x) -> np.ndarray:
    return d - x @ g.T - g @ x


def kind_matrix(kind, n: int) -> np.ndarray:
    """Test matrix of a lindlyap criterion-kind object, rebuilt from its fields."""
    name = kind.name
    if name in ("uncertainty", "classicality"):
        return xi(name, n)
    part = kind.partition
    if name == "separability":
        return xi(name, n, flipped=part.part_two)
    steered = part.part_one if kind.steered_part == 1 else part.part_two
    return xi(name, n, steered=steered)


def verdict_of(spectrum) -> str | None:
    """Verdict implied by a spectrum, or None when its minimum sits on the band edge."""
    band = EIG_ZERO_BAND * max(1.0, float(np.abs(spectrum).max()))
    low = float(np.min(spectrum))
    if abs(abs(low) - band) < 1e-3 * band:
        return None
    if low < -band:
        return "violated"
    return "marginal" if low <= band else "holds"


def check_spectrum(errors, what, got_spectrum, got_verdict, tested, gram=False) -> None:
    """Spectrum and verdict of one criterion result against its rebuilt test matrix.

    ``gram`` marks the environment uncertainty test, whose matrix is twice the
    conjugate noise Gram matrix: PSD for every model, so its verdict is always "holds".
    """
    want = np.linalg.eigvalsh(0.5 * (tested + tested.conj().T))
    dev = rel_dev(got_spectrum, want)
    if dev > SPECTRUM_RTOL:
        errors.append(f"{what}: spectrum off by {dev:.2e}")
    expected = verdict_of(want)
    if gram and expected == "marginal":
        expected = "holds"
    if expected is not None and got_verdict != expected:
        errors.append(f"{what}: verdict {got_verdict}, spectrum implies {expected}")


# ---------------------------------------------------------------- catalog closed forms

CLOSED_SPECTRA = {  # env criterion closed forms on the half split, by family
    "TwoOscRWA": {"classicality": "classicality_spectrum_env"},
    "OPO": {"classicality": "classicality_spectrum_env"},
    "CascadedOPO": {"separability": "separability_spectrum_env",
                    "steerability1": "steerability_spectrum_part1_env",
                    "steerability2": "steerability_spectrum_part2_env"},
    "OPOThermal": {"classicality": "classicality_spectrum_env",
                   "separability": "separability_spectrum_env",
                   "steerability1": "steerability_spectrum_env",
                   "steerability2": "steerability_spectrum_env"},
}
CLOSED_DRIFT = ("TwoOscThermal", "OPO", "CascadedOPO", "OPOThermal")


def closed_cm(L, family, params):
    if family == "TMTSS":
        return np.asarray(L.catalog_analytic(family, "target_cm", params))
    if family == "OPOThermal":
        return None
    return np.asarray(L.catalog_analytic(family, "steady_cm", params))


def check_closed_forms(L, errors, family, params, cm, drift_spectrum, env_results) -> None:
    want = closed_cm(L, family, params)
    if want is not None and rel_dev(cm, want) > STEADY_RTOL:
        errors.append(f"{family}: steady state off its closed form by {rel_dev(cm, want):.2e}")
    if family in CLOSED_DRIFT:
        dev = spectra_match(drift_spectrum, L.catalog_analytic(family, "drift_spectrum", params))
        if dev > SPECTRUM_RTOL:
            errors.append(f"{family}: drift spectrum off its closed form by {dev:.2e}")
    for key, (spectrum, _) in env_results.items():
        quantity = CLOSED_SPECTRA.get(family, {}).get(key)
        if quantity is None:
            continue
        want = np.sort(np.asarray(L.catalog_analytic(family, quantity, params), dtype=float))
        if rel_dev(np.sort(spectrum), want) > SPECTRUM_RTOL:
            errors.append(f"{family}: env {key} spectrum off {quantity}")


def result_key(kind) -> str:
    if kind.name == "steerability":
        return f"steerability{kind.steered_part}"
    return kind.name


# ---------------------------------------------------------------- analyse_ladder


def check_analyse(L, job, out) -> list[str]:
    errors: list[str] = []
    dyn, cm = out["dyn"], out["cm"]
    g, d = dyn.drift_matrix, dyn.diffusion
    n = dyn.n
    eigs = np.linalg.eigvals(g)
    abscissa = float(eigs.real.max())
    if abs(out["report"].spectral_abscissa - abscissa) > SPECTRUM_RTOL * scale(g):
        errors.append("stability: spectral abscissa off")
    if spectra_match(out["report"].spectrum, eigs) > SPECTRUM_RTOL:
        errors.append("stability: drift spectrum off")
    if not out["report"].is_stable:
        errors.append("stability: stable model reported unstable")
    if not np.all(np.isfinite(cm)):
        errors.append("steady state is not finite")
        return errors
    res = rel_residual(g, cm, d)
    if res > RESIDUAL_RTOL:
        errors.append(f"steady state: Lyapunov residual {res:.2e} relative to ||D||")
    ref = reference_cm(g, d)
    if rel_dev(cm, ref) > STEADY_RTOL:
        errors.append(f"steady state off the Bartels-Stewart reference by {rel_dev(cm, ref):.2e}")

    env_results = {}
    for kind, st, en in zip(out["kinds"], out["state"], out["env"]):
        x = kind_matrix(kind, n)
        check_spectrum(errors, f"state {kind.name}", st.spectrum, st.verdict.value, cm + x)
        check_spectrum(errors, f"env {kind.name}", en.spectrum, en.verdict.value, env_tested(g, d, x),
                       gram=kind.name == "uncertainty")
        env_results[result_key(kind)] = (en.spectrum, en.verdict.value)

    normal = out["normal"]
    lam = np.diag(np.concatenate([normal.mu, normal.mu]))
    j = sympl_form(n)
    if rel_dev(normal.s @ cm @ normal.s.T, lam) > NORMAL_FORM_RTOL:
        errors.append("williamson: S M S^T != Lambda")
    if rel_dev(normal.s @ j @ normal.s.T, j) > NORMAL_FORM_RTOL:
        errors.append("williamson: S J S^T != J")
    if rel_dev(normal.mu, symplectic_eigs(ref)) > NORMAL_FORM_RTOL:
        errors.append("williamson: symplectic eigenvalues off")

    reservoir = out["reservoir"]
    if rel_dev(reservoir.target, cm) > NORMAL_FORM_RTOL:
        errors.append("engineering: target is not the steady state")
    engineered = reference_cm(reservoir.drift_matrix, reservoir.diffusion)
    if rel_dev(engineered, cm) > NORMAL_FORM_RTOL:
        errors.append(f"engineering: steady state misses the target by {rel_dev(engineered, cm):.2e}")

    if job.data["family"] is not None:
        check_closed_forms(L, errors, job.data["family"], job.data["params"], cm,
                           out["report"].spectrum, env_results)
    return errors


# ---------------------------------------------------------------- cli_catalog


def parse_csv(text: str):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, rows


def parse_matrix_after(lines, marker, stop) -> np.ndarray:
    start = lines.index(marker) + 1
    rows = []
    for line in lines[start:]:
        if line.startswith(stop):
            break
        rows.append([complex(tok) if "j" in tok else float(tok) for tok in line.split()])
    return np.array(rows)


def model_of(L, family, params):
    return L.catalog_build(family, params).build()


def stable_at(L, family, params) -> bool:
    g = model_of(L, family, params).drift_matrix
    return float(np.linalg.eigvals(g).real.max()) < -1e-10


def state_min_eig(L, family, params, kind) -> float:
    dyn = model_of(L, family, params)
    if float(np.linalg.eigvals(dyn.drift_matrix).real.max()) >= -1e-10:
        return math.nan
    v = reference_cm(dyn.drift_matrix, dyn.diffusion)
    return float(np.linalg.eigvalsh(v + kind_xi(kind, dyn.n)).min())


def env_min_eig(L, family, params, kind) -> float:
    dyn = model_of(L, family, params)
    tested = env_tested(dyn.drift_matrix, dyn.diffusion, kind_xi(kind, dyn.n))
    return float(np.linalg.eigvalsh(tested).min())


def kind_xi(kind: str, n: int) -> np.ndarray:
    # the CLI's default partition flips the last mode
    if kind == "separability":
        return xi(kind, n, flipped=(n - 1,))
    return xi(kind, n)


def expected_env_threshold(L, family, params, formula, lo, hi) -> float:
    """Closed-form flip in zeta units, or nan when it leaves the bracket or the stable window."""
    value = float(L.catalog_analytic(family, formula, params))
    if family == "TwoOscThermal":
        value *= params["kappa"]  # the closed forms are in zeta / kappa units
    if not (lo <= value <= hi):
        return math.nan
    if not (stable_at(L, family, dict(params, zeta=lo)) and stable_at(L, family, dict(params, zeta=hi))):
        return math.nan
    return value


def check_close(errors, what, got, want, rtol) -> None:
    if math.isnan(want) or math.isnan(got):
        if not (math.isnan(want) and math.isnan(got)):
            errors.append(f"{what}: got {got!r}, expected {want!r}")
        return
    if abs(got - want) > rtol * max(1.0, abs(want)):
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_state_threshold(L, errors, what, family, params, kind, got, lo, hi) -> None:
    f = lambda z: state_min_eig(L, family, dict(params, zeta=z), kind)  # noqa: E731
    if math.isnan(got):
        flo, fhi = f(lo), f(hi)
        if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0:
            errors.append(f"{what}: nan, but the verdict flips inside [{lo}, {hi}]")
        return
    below, above = f(got * (1 - FLIP_STEP)), f(got * (1 + FLIP_STEP))
    if not (math.isfinite(below) and math.isfinite(above) and below * above < 0):
        errors.append(f"{what}: no verdict flip around {got!r} ({below:.3e}, {above:.3e})")


def check_sweep(L, job, text) -> list[str]:
    errors: list[str] = []
    header, rows = parse_csv(text)
    family, base, sweep = job.data["family"], job.data["params"], job.data["sweep"]
    argv = job.data["argv"]
    lo, hi = (float(x) for x in argv[argv.index("--threshold-range") + 1].split(":"))
    param = argv[argv.index("--param") + 1]
    a, b, steps = argv[argv.index("--range") + 1].split(":")
    grid = np.linspace(float(a), float(b), int(steps))
    if rows.shape[0] != grid.size or np.abs(rows[:, 0] - grid).max() > 0:
        return [f"sweep {sweep}: grid column does not match --range"]
    for row in rows.tolist():
        p = dict(base, **{param: row[0]})
        stable = stable_at(L, family, p)
        for col, value in zip(header[1:], row[1:]):
            what = f"sweep {sweep} {param}={row[0]!r} {col}"
            if col == "env_separability_min_eig":  # OPOThermal closed form
                spectrum = L.catalog_analytic(family, "separability_spectrum_env", p)
                want = float(np.min(spectrum)) if stable else math.nan
                check_close(errors, what, value, want, SPECTRUM_RTOL)
            elif col == "env_classicality_min_eig":
                want = env_min_eig(L, family, p, "classicality") if stable else math.nan
                check_close(errors, what, value, want, SPECTRUM_RTOL)
            elif col == "state_separability_min_eig":
                want = state_min_eig(L, family, p, "separability")
                check_close(errors, what, value, want, STEADY_RTOL)
            elif col in ("purity", "min_symplectic_eig"):
                if stable:
                    dyn = model_of(L, family, p)
                    mu = symplectic_eigs(reference_cm(dyn.drift_matrix, dyn.diffusion))
                    want = float(1.0 / np.prod(mu)) if col == "purity" else float(mu.min())
                else:
                    want = math.nan
                check_close(errors, what, value, want, STEADY_RTOL)
            elif col.startswith("thr_"):
                kind, level = col.split("_")[1:3]
                if level == "env":
                    formula = {("OPOThermal", "separability"): "separability_flip",
                               ("OPOThermal", "classicality"): "classicality_flip",
                               ("TwoOscThermal", "separability"): "separability_threshold_env",
                               ("TwoOscThermal", "classicality"): "classicality_threshold_env"}[(family, kind)]
                    want = expected_env_threshold(L, family, p, formula, lo, hi)
                    check_close(errors, what, value, want, THRESHOLD_RTOL)
                else:
                    check_state_threshold(L, errors, what, family, p, kind, value, lo, hi)
            else:
                errors.append(f"sweep {sweep}: unexpected column {col}")
    return errors


def nan_cells(text: str) -> int:
    _, rows = parse_csv(text)
    return int(np.isnan(rows).sum())


def check_family_call(L, job, text) -> list[str]:
    errors: list[str] = []
    family, params, command = job.data["family"], job.data["params"], job.data["command"]
    dyn = model_of(L, family, params)
    g, d = dyn.drift_matrix, dyn.diffusion
    n = dyn.n
    ref = reference_cm(g, d)
    lines = text.strip().splitlines()
    if command == "steady":
        cm = parse_matrix_after(lines, "steady covariance matrix:", "residual:")
        if rel_dev(cm, ref) > STEADY_RTOL:
            errors.append(f"steady {family}: off the reference by {rel_dev(cm, ref):.2e}")
        check_closed_forms(L, errors, family, params, cm, np.linalg.eigvals(g), {})
    elif command == "stability":
        if lines[0] != "asymptotically stable: yes":
            errors.append(f"stability {family}: {lines[0]}")
        spectrum = np.array([complex(line.strip()) for line in lines[lines.index("drift spectrum:") + 1:]
                             if line.startswith("  ")])
        if spectra_match(spectrum, np.linalg.eigvals(g)) > SPECTRUM_RTOL:
            errors.append(f"stability {family}: spectrum off")
        check_closed_forms(L, errors, family, params, ref, spectrum, {})
    elif command == "criteria":
        env_results = {}
        for entry in json.loads(text):
            kind = entry["kind"]
            steered = ()
            if kind == "steerability":
                part = int(re.search(r"steered part (\d)", entry["label"]).group(1))
                steered = tuple(range(n - 1)) if part == 1 else (n - 1,)
                key = f"steerability{part}"
            else:
                key = kind
            x = xi(kind, n, flipped=(n - 1,), steered=steered)
            tested = ref + x if entry["level"] == "state" else env_tested(g, d, x)
            check_spectrum(errors, f"criteria {family} {entry['level']} {key}",
                           np.array(entry["spectrum"]), entry["verdict"], tested,
                           gram=entry["level"] == "environment" and kind == "uncertainty")
            if entry["level"] == "environment":
                env_results[key] = (np.array(entry["spectrum"]), entry["verdict"])
        check_closed_forms(L, errors, family, params, ref, np.linalg.eigvals(g), env_results)
    elif command == "williamson":
        mu = np.array([float(t) for t in lines[0].split(":", 1)[1].split()])
        s = parse_matrix_after(lines, "congruence S:", "|S J S^T")
        lam = np.diag(np.concatenate([mu, mu]))
        j = sympl_form(n)
        if rel_dev(s @ ref @ s.T, lam) > NORMAL_FORM_RTOL or rel_dev(s @ j @ s.T, j) > NORMAL_FORM_RTOL:
            errors.append(f"williamson {family}: identities fail")
        if rel_dev(mu, symplectic_eigs(ref)) > NORMAL_FORM_RTOL:
            errors.append(f"williamson {family}: symplectic eigenvalues off")
    elif command == "engineer":
        doc = json.loads(text)
        target = np.asarray(L.catalog_analytic("TMTSS", "target_cm", params))
        if rel_dev(np.array(doc["target"]), target) > STEADY_RTOL:
            errors.append("engineer: target differs from the TMTSS closed form")
        got = reference_cm(np.array(doc["drift_matrix"]), np.array(doc["diffusion"]))
        if rel_dev(got, target) > NORMAL_FORM_RTOL:
            errors.append(f"engineer: engineered steady state misses the target by {rel_dev(got, target):.2e}")
    return errors


# ---------------------------------------------------------------- evolve_relax


def check_rows(errors, what, dyn, times, means, cms) -> None:
    """Recorded moments against x(t) = x_inf + e^{Gt} (x0 - x_inf) and
    V(t) = V_inf + e^{Gt} (V0 - V_inf) e^{G^T t}, from x0 = 0, V0 = V0_SCALE * I."""
    g = dyn.drift_matrix
    dim = g.shape[0]
    x_inf = np.linalg.solve(g, -dyn.drive)
    v_inf = reference_cm(g, dyn.diffusion)
    dx0, dv0 = -x_inf, V0_SCALE * np.eye(dim) - v_inf
    worst = 0.0
    for t, x, v in zip(times, means, cms):
        phi = expm(g * t)
        vt = v_inf + phi @ dv0 @ phi.T
        worst = max(worst, rel_dev(v, vt), float(np.abs(x - x_inf - phi @ dx0).max()) / scale(vt))
    if worst > TRAJECTORY_RTOL:
        errors.append(f"{what}: trajectory off the exact propagator by {worst:.2e}")


def check_evolve(L, job, out) -> list[str]:
    errors: list[str] = []
    command = job.data.get("command")
    if command == "evolve_csv":
        dyn = model_of(L, job.data["family"], job.data["params"])
        dim = 2 * dyn.n
        header, rows = parse_csv(out["stdout"])
        if len(header) != 1 + dim + dim * dim or abs(rows[-1, 0] - EVOLVE_T_END) > 1e-9:
            return ["evolve csv: unexpected layout or final time"]
        check_rows(errors, "evolve csv", dyn, rows[:, 0], rows[:, 1:1 + dim],
                   rows[:, 1 + dim:].reshape(-1, dim, dim))
    elif command == "evolve_json":
        chain = job.data["chain"]
        dyn = chain_spec(L, chain["hessian"], chain["rates"], chain["occupations"]).build()
        doc = json.loads(out["stdout"])
        if abs(doc["t_end"] - EVOLVE_T_END) > 1e-9:
            errors.append("evolve json: wrong final time")
        check_rows(errors, "evolve json", dyn, [doc["t_end"]], [np.array(doc["final_mean"])],
                   [np.array(doc["final_cm"])])
    else:
        params = job.data["params"]
        dyn = model_of(L, "TwoOscThermal", params)
        ref = reference_cm(dyn.drift_matrix, dyn.diffusion)
        if rel_dev(out["cm"], ref) > STEADY_RTOL:
            errors.append("dense relax: steady state off the reference")
        closed = np.asarray(L.catalog_analytic("TwoOscThermal", "steady_cm", params))
        if rel_dev(out["cm"], closed) > STEADY_RTOL:
            errors.append("dense relax: steady state off its closed form")
        if rel_dev(out["quad"], out["cm"]) > QUADRATURE_RTOL:
            errors.append(f"dense relax: quadrature off the solve by {rel_dev(out['quad'], out['cm']):.2e}")
        traj = out["traj"]
        if traj.times.size < 2 or abs(traj.times[-1] - DENSE_T_END) > 1e-9:
            errors.append("dense relax: wrong recording")
        check_rows(errors, "dense relax", dyn, traj.times, traj.means, traj.cms)
    return errors


# ---------------------------------------------------------------- dispatch


def check_job(L, job, out) -> list[str]:
    """Mismatches of one job's output; a CLI job must also exit 0 with no nan outside sweeps."""
    if job.label.startswith("analyse:"):
        return check_analyse(L, job, out)
    if job.label == "evolve:api_dense":
        return check_evolve(L, job, out)
    if out["code"] != 0:
        return [f"{' '.join(job.data['argv'][:1])}: exit code {out['code']}: {out['stderr'].strip()}"]
    if job.label.startswith("evolve:"):
        return check_evolve(L, job, out)
    if "sweep" in job.data:
        return check_sweep(L, job, out["stdout"])
    if "nan" in out["stdout"]:
        return [f"{job.label}: unexpected nan in output"]
    return check_family_call(L, job, out["stdout"])
