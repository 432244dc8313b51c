"""End-to-end acceptance checks.

One test per advertised capability, each asserting its stated tolerance and
printing a single summary line (visible with pytest -s).  These intentionally
re-derive expected values from closed forms or independent numerical routes
rather than trusting the implementation under test.
"""

import math
import time

import numpy as np
import pytest

from lindlyap import (
    Classicality,
    Partition,
    Separability,
    Steerability,
    Uncertainty,
    Verdict,
    catalog_analytic,
    catalog_build,
    environment_criterion,
    evolve,
    gibbs_condition,
    solve,
    solve_integral,
    squeeze_transform,
    stability_check,
    state_criterion,
    steady_covariance,
    symplectic_form,
    williamson_decompose,
)
from lindlyap.model import GaussianDynamics

from conftest import locate_flip, random_stable_model

HALF = Partition(2, frozenset({1}))


def report(msg: str):
    print(msg)


def build(cid, **params):
    return catalog_build(cid, params).build()


def raw_pair(gamma, diffusion):
    dim = gamma.shape[0]
    return GaussianDynamics(
        hessian=np.zeros((dim, dim)),
        drift_matrix=np.asarray(gamma, dtype=float),
        diffusion=np.asarray(diffusion, dtype=float),
        noise_gram=np.zeros((dim, dim), dtype=complex),
        mean_shift=np.zeros(dim),
        drive=np.zeros(dim),
    )


def env_min_eig(cid, params, kind):
    return environment_criterion(build(cid, **params), kind).spectrum.min()


def state_min_eig(cid, params, kind):
    cm = steady_covariance(build(cid, **params))
    return state_criterion(cm, kind).spectrum.min()


def test_c01_thermal_pair_steady_state_grid():
    """Closed-form steady covariance vs the solver on a 10 x 10 parameter grid."""
    worst = 0.0
    t0 = time.perf_counter()
    for nbar in np.linspace(0.05, 2.0, 10):
        for zeta in np.linspace(0.2, 3.0, 10):
            params = dict(omega=0.5, kappa=1.0, zeta=float(zeta), nbar=float(nbar))
            want = catalog_analytic("TwoOscThermal", "steady_cm", params)
            got = steady_covariance(build("TwoOscThermal", **params))
            worst = max(worst, np.abs(want - got).max() / np.abs(want).max())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(f"criterion 1 (thermal pair steady grid): PASS - rel dev {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_c02_exchange_coupled_steady_state_grid():
    """Asymmetric-occupation closed form on a 5 x 5 x 5 grid plus the decoupled limit."""
    worst = 0.0
    for z1 in np.linspace(0.2, 1.0, 5):
        for z2 in np.linspace(0.15, 0.9, 5):
            for om in np.linspace(0.1, 2.0, 5):
                params = dict(
                    varpi=1.1, Omega=float(om), zeta1=float(z1), zeta2=float(z2), nbar1=0.4, nbar2=1.3
                )
                want = catalog_analytic("TwoOscRWA", "steady_cm", params)
                got = steady_covariance(build("TwoOscRWA", **params))
                worst = max(worst, np.abs(want - got).max() / np.abs(want).max())
    assert worst <= 1e-8

    # with the second bath switched off everything thermalizes with bath one
    limit_params = dict(varpi=1.1, Omega=0.45, zeta1=0.5, zeta2=0.0, nbar1=0.4, nbar2=1.3)
    limit = catalog_analytic("TwoOscRWA", "steady_cm", limit_params)
    assert np.abs(limit - (2 * 0.4 + 1) * np.eye(4)).max() <= 1e-8
    got = steady_covariance(build("TwoOscRWA", **limit_params))
    assert np.abs(got - limit).max() <= 1e-8
    report(f"criterion 2 (exchange-coupled steady grid): PASS - rel dev {worst:.2e}")


def test_c03_environment_thresholds_against_closed_forms():
    """Bisected environment-level flips match the two-bath closed forms at 20 points."""
    worst_cls = worst_sep = 0.0
    for n1 in (0.2, 0.8, 1.6, 3.0):
        for n2 in (0.25, 0.6, 1.0, 2.0, 2.8):
            base = dict(omega=0.37, kappa=1.0, nbar1=n1, nbar2=n2)
            p_form = catalog_analytic("TwoOscThermal", "classicality_threshold_env", dict(base, zeta=1.0))
            s_form = catalog_analytic("TwoOscThermal", "separability_threshold_env", dict(base, zeta=1.0))
            assert s_form < p_form  # entanglement always dies before nonclassicality

            p_num = locate_flip(
                lambda z: env_min_eig("TwoOscThermal", dict(base, zeta=z), Classicality()), 1e-6, 50.0
            )
            s_num = locate_flip(
                lambda z: env_min_eig("TwoOscThermal", dict(base, zeta=z), Separability(HALF)), 1e-6, 50.0
            )
            worst_cls = max(worst_cls, abs(p_num - p_form))
            worst_sep = max(worst_sep, abs(s_num - s_form))
    assert worst_cls <= 1e-6
    assert worst_sep <= 1e-6
    report(
        "criterion 3 (environment thresholds): PASS - "
        f"classicality dev {worst_cls:.2e}, separability dev {worst_sep:.2e}"
    )


def test_c04_state_thresholds_against_closed_forms():
    """State-level flips of the thermal pair and the environment bounds above them."""
    worst = 0.0
    for nbar in (0.05, 0.1, 0.15, 0.2, 0.24):
        base = dict(omega=0.5, kappa=1.0, nbar=nbar)
        form = catalog_analytic("TwoOscThermal", "classicality_threshold_state", dict(base, zeta=1.0))
        num = locate_flip(
            lambda z: state_min_eig("TwoOscThermal", dict(base, zeta=z), Classicality()), 1e-4, 10.0
        )
        worst = max(worst, abs(num - form))
        env_form = catalog_analytic("TwoOscThermal", "classicality_threshold_env", dict(base, zeta=1.0))
        assert form < env_form  # sufficient-only: environment flip overestimates the state flip
    for nbar in (0.04, 0.07, 0.10):
        base = dict(omega=0.5, kappa=1.0, nbar=nbar)
        form = catalog_analytic("TwoOscThermal", "separability_threshold_state", dict(base, zeta=1.0))
        num = locate_flip(
            lambda z: state_min_eig("TwoOscThermal", dict(base, zeta=z), Separability(HALF)), 1e-4, 10.0
        )
        worst = max(worst, abs(num - form))
        env_form = catalog_analytic("TwoOscThermal", "separability_threshold_env", dict(base, zeta=1.0))
        assert form < env_form
    assert worst <= 1e-6
    report(f"criterion 4 (state thresholds): PASS - dev {worst:.2e}")


def test_c05_cascaded_environment_spectra():
    """Cascade environment spectra (drive-independent) and the steady-state closed form."""
    samples = [(0.3, -0.2, 1.0), (0.5, 0.4, 1.0), (-0.6, 0.2, 1.0), (0.3, -0.2, 2.0)]
    worst = 0.0
    for e1, e2, kap in samples:
        params = dict(epsilon1=e1, epsilon2=e2, kappa=kap)
        dyn = build("CascadedOPO", **params)
        for quantity, kind in [
            ("separability_spectrum_env", Separability(HALF)),
            ("steerability_spectrum_part1_env", Steerability(HALF, 1)),
            ("steerability_spectrum_part2_env", Steerability(HALF, 2)),
        ]:
            want = catalog_analytic("CascadedOPO", quantity, params)
            got = np.sort(environment_criterion(dyn, kind).spectrum)
            worst = max(worst, np.abs(want - got).max())
    assert worst <= 1e-10

    worst_cm = 0.0
    for e1, e2 in [(0.3, -0.2), (0.5, 0.4), (-0.6, 0.2)]:
        params = dict(epsilon1=e1, epsilon2=e2, kappa=1.0)
        want = catalog_analytic("CascadedOPO", "steady_cm", params)
        got = steady_covariance(build("CascadedOPO", **params))
        worst_cm = max(worst_cm, np.abs(want - got).max())
    assert worst_cm <= 1e-8
    report(
        f"criterion 5 (cascade spectra): PASS - spectra dev {worst:.2e}, steady dev {worst_cm:.2e}"
    )


def test_c06_squeezing_below_threshold():
    """Single-mode squeezed steady state and its always-nonclassical environment verdict."""
    worst = 0.0
    for kap in (1.0, 0.7):
        for ratio in np.linspace(0.05, 0.95, 7):
            eps = float(ratio * kap)
            params = dict(epsilon=eps, kappa=kap)
            want = np.diag([kap / (kap - eps), kap / (kap + eps)])
            got = steady_covariance(build("OPO", **params))
            worst = max(worst, np.abs(want - got).max())

            res = environment_criterion(build("OPO", **params), Classicality())
            assert np.abs(np.sort(res.spectrum) - np.array([-eps, eps])).max() <= 1e-12
            assert res.verdict is Verdict.VIOLATED
    assert worst <= 1e-10

    marginal = environment_criterion(build("OPO", epsilon=0.0, kappa=1.0), Classicality())
    assert marginal.verdict is Verdict.MARGINAL
    assert np.abs(marginal.spectrum).max() <= 1e-12
    report(f"criterion 6 (squeezed mode): PASS - steady dev {worst:.2e}, marginal at zero drive")


def test_c07a_joint_drive_classicality_flip():
    """Environment classicality flips where the drive beats the total linewidth."""
    worst = 0.0
    for nbar in (0.2, 0.3, 0.45):
        for kap in (0.8, 1.0, 1.3):
            for ratio in (0.05, 0.1):
                eps = ratio * kap
                base = dict(epsilon=eps, kappa=kap, nbar=nbar)
                want = (eps + kap) / (2 * nbar)
                edge = eps + kap
                num = locate_flip(
                    lambda z: env_min_eig("OPOThermal", dict(base, zeta=z), Classicality()),
                    1.002 * edge,
                    12.0 * kap,
                )
                worst = max(worst, abs(num - want))
    assert worst <= 1e-6
    report(f"criterion 7a (classicality flip): PASS - dev {worst:.2e}")


def test_c07b_joint_drive_entanglement_flip():
    """Environment separability flips where the drive beats the shared decay."""
    worst = 0.0
    for nbar in (0.2, 0.3, 0.45):
        for kap in (0.8, 1.0, 1.3):
            for ratio in (0.05, 0.1):
                eps = ratio * kap
                base = dict(epsilon=eps, kappa=kap, nbar=nbar)
                want = kap / (2 * nbar)
                edge = eps + kap
                if want <= 1.004 * edge:
                    continue  # flip merges into the stability edge, nothing to bisect
                num = locate_flip(
                    lambda z: env_min_eig("OPOThermal", dict(base, zeta=z), Separability(HALF)),
                    1.002 * edge,
                    12.0 * kap,
                )
                worst = max(worst, abs(num - want))
    assert worst <= 1e-6
    report(f"criterion 7b (entanglement flip): PASS - dev {worst:.2e}")


def test_c07c_joint_drive_steerability_flip():
    """Steerability is claimed to flip at (2*nbar + 1/2)*zeta = sqrt(zeta^2 + kappa^2)."""
    eps, kap, nbar = 0.05, 0.8, 0.3
    base = dict(epsilon=eps, kappa=kap, nbar=nbar)
    edge = eps + kap

    claimed = kap / math.sqrt((2 * nbar + 0.5) ** 2 - 1.0)

    def f(z):
        return min(
            env_min_eig("OPOThermal", dict(base, zeta=z), Steerability(HALF, 1)),
            env_min_eig("OPOThermal", dict(base, zeta=z), Steerability(HALF, 2)),
        )

    grid = np.linspace(1.002 * edge, 12.0 * kap, 120)
    values = np.array([f(z) for z in grid])
    if values.min() < 0 < values.max():
        num = locate_flip(f, 1.002 * edge, 12.0 * kap)
        assert abs(num - claimed) <= 1e-6
        report(f"criterion 7c (steerability flip): PASS - dev {abs(num - claimed):.2e}")
        return

    actual = catalog_analytic("OPOThermal", "steerability_flip", dict(base, zeta=1.0))
    at_claimed = f(claimed)
    pytest.fail(
        "criterion 7c (steerability flip): FAIL - the claimed crossing "
        f"(2*nbar+1/2)*zeta = sqrt(zeta^2+kappa^2), i.e. zeta = {claimed:.6f}, does not occur: "
        f"the steering eigenvalue there is {at_claimed:+.6f} and keeps one sign "
        f"(range [{values.min():+.6f}, {values.max():+.6f}]) across the whole stable window "
        f"zeta > {edge:.3f}.  The smallest eigenvalue of the environment steering spectrum "
        "{(2*nbar+1/2)*zeta +/- sqrt(zeta^2+kappa^2)/2, (2*nbar+3/2)*zeta +/- sqrt(zeta^2+kappa^2)/2} "
        f"instead crosses zero at zeta = {actual:.6f}, below the stability edge, so the verdict "
        "never flips inside the stable window for this occupation.  The claimed formula has a real "
        "solution only for nbar > 1/4, while an in-window crossing of the actual spectrum needs "
        "nbar < ~0.104: the two windows are disjoint, so no occupation exhibits the claimed flip."
    )


def test_c08_symplectic_normal_form_random():
    """200 random positive matrices: symplectic congruence and eigenvalue cross-check."""
    rng = np.random.default_rng(2024)
    worst_j = worst_m = worst_mu = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(2 * n, 2 * n))
        m = a @ a.T + 0.05 * np.eye(2 * n)
        j = symplectic_form(n)
        dec = williamson_decompose(m)
        scale = max(1.0, np.abs(m).max())
        worst_j = max(worst_j, np.abs(dec.s @ j @ dec.s.T - j).max())
        worst_m = max(worst_m, np.abs(dec.s @ m @ dec.s.T - dec.lambda_matrix).max() / scale)
        # eigenvalues of J M come in +/- i*mu pairs; keep one of each
        ref = np.sort(np.abs(np.linalg.eigvals(j @ m).imag))[::2]
        worst_mu = max(worst_mu, np.abs(np.sort(dec.mu) - ref).max())
    assert worst_j <= 1e-9
    assert worst_m <= 1e-9
    assert worst_mu <= 1e-10
    report(
        "criterion 8 (symplectic normal form): PASS - "
        f"form dev {worst_j:.2e}, diag dev {worst_m:.2e}, eig dev {worst_mu:.2e}"
    )


def test_c09_engineered_squeezed_thermal_reservoir():
    """Engineered reservoirs hit their two-mode squeezed thermal targets and flip on cue."""
    worst = 0.0
    for nbar in (0.5, 1.0, 2.3):
        for r in (0.3, 0.9):
            got = steady_covariance(build("TMTSS", r=r, nbar=nbar))
            want = (2 * nbar + 1) * squeeze_transform(r)
            worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-8

    worst_flip = 0.0
    for nbar in (0.5, 1.0, 2.3):
        sep = locate_flip(
            lambda r: state_min_eig("TMTSS", dict(r=r, nbar=nbar), Separability(HALF)), 0.02, 3.2
        )
        steer = locate_flip(
            lambda r: state_min_eig("TMTSS", dict(r=r, nbar=nbar), Steerability(HALF, 1)), 0.02, 3.2
        )
        worst_flip = max(worst_flip, abs(sep - math.log(2 * nbar + 1)))
        worst_flip = max(worst_flip, abs(steer - math.acosh(2 * nbar + 1)))
    assert worst_flip <= 1e-6
    report(
        f"criterion 9 (engineered reservoir): PASS - target dev {worst:.2e}, flip dev {worst_flip:.2e}"
    )


def test_c10_random_model_consistency():
    """500 random stable models: noise positivity, physical steady states, verdict hierarchy."""
    rng = np.random.default_rng(31337)
    counterexamples = 0
    worst_unc = 0.0
    for _ in range(500):
        dyn = random_stable_model(rng)
        res = environment_criterion(dyn, Uncertainty())
        dev = np.abs(res.tested_matrix - 2.0 * np.conj(dyn.noise_gram)).max()
        worst_unc = max(worst_unc, dev)
        assert res.verdict is not Verdict.VIOLATED
        assert np.linalg.eigvalsh(res.tested_matrix).min() >= -1e-9 * max(
            1.0, np.abs(res.tested_matrix).max()
        )

        cm = steady_covariance(dyn)
        n = dyn.n
        j = symplectic_form(n)
        scale = max(1.0, np.abs(cm).max())
        assert np.linalg.eigvalsh(cm + 1j * j).min() >= -1e-9 * scale

        if n < 2:
            continue
        cls = state_criterion(cm, Classicality())
        for k in range(n):
            part = Partition(n, frozenset({k}))
            sep = state_criterion(cm, Separability(part))
            if cls.verdict is not Verdict.VIOLATED and sep.verdict is Verdict.VIOLATED:
                counterexamples += 1
            for steered in (1, 2):
                st = state_criterion(cm, Steerability(part, steered))
                if st.verdict is Verdict.VIOLATED and sep.verdict is not Verdict.VIOLATED:
                    counterexamples += 1
    assert worst_unc <= 1e-12
    assert counterexamples == 0
    report(
        f"criterion 10 (random model consistency): PASS - noise dev {worst_unc:.2e}, 0 counterexamples"
    )


def test_c11_isotropic_steady_state_family():
    """Drift/diffusion pairs in fixed ratio always relax to a multiple of the identity."""
    rng = np.random.default_rng(97)
    worst_cm = worst_alpha = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dim = 2 * n
        r = rng.normal(size=(dim, dim))
        p = rng.normal(size=(dim, dim))
        gamma = 0.5 * (r - r.T) - p @ p.T - 0.1 * np.eye(dim)
        alpha = float(rng.uniform(0.3, 6.0))
        d = -alpha * (gamma + gamma.T)

        cm = solve(gamma, d)
        worst_cm = max(worst_cm, np.abs(cm - alpha * np.eye(dim)).max() / max(1.0, alpha))

        trace_alpha = -0.5 * np.trace(d) / np.trace(gamma)
        worst_alpha = max(worst_alpha, abs(trace_alpha - alpha))
        detected = gibbs_condition(raw_pair(gamma, d))
        assert detected is not None and abs(detected - alpha) <= 1e-10
    assert worst_cm <= 1e-9
    assert worst_alpha <= 1e-10
    report(
        f"criterion 11 (isotropic family): PASS - steady dev {worst_cm:.2e}, ratio dev {worst_alpha:.2e}"
    )


def test_c12_solver_quadrature_evolution_agreement():
    """The exact integral route and exact moment propagation agree with the solver on every family."""
    cases = [
        ("TwoOscThermal", dict(omega=0.5, kappa=1.0, zeta1=0.9, zeta2=0.8, nbar1=0.8, nbar2=0.3)),
        ("TwoOscRWA", dict(varpi=0.9, Omega=0.25, zeta1=0.8, zeta2=1.0, nbar1=0.6, nbar2=0.1)),
        ("OPO", dict(epsilon=0.3, kappa=1.0)),
        ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
        ("OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.55, nbar=0.3)),
        ("TMTSS", dict(r=0.7, nbar=0.5)),
    ]
    worst_quad = worst_evo = 0.0
    for cid, params in cases:
        dyn = build(cid, **params)
        vss = steady_covariance(dyn)
        quad = solve_integral(dyn.drift_matrix, dyn.diffusion)
        worst_quad = max(worst_quad, np.abs(quad - vss).max() / np.abs(vss).max())

        abscissa = stability_check(dyn).spectral_abscissa
        dim = 2 * dyn.n
        traj = evolve(
            dyn,
            np.zeros(dim),
            5.0 * np.eye(dim),
            t_end=40.0 / abs(abscissa),
            dt=5e-3,
            record_every=5000,
        )
        worst_evo = max(worst_evo, np.abs(traj.final_cm - vss).max())
    assert worst_quad <= 1e-12
    assert worst_evo <= 1e-6
    report(
        f"criterion 12 (route agreement): PASS - integral route rel dev {worst_quad:.2e}, evolution dev {worst_evo:.2e}"
    )
