import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from lindlyap import (
    GaussianDynamics,
    catalog_build,
    evolve,
    solve,
    stability_check,
    steady_covariance,
)


def raw_pair_dynamics(gamma, diffusion, drive=None):
    gamma = np.asarray(gamma, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    dim = gamma.shape[0]
    return GaussianDynamics(
        hessian=np.zeros((dim, dim)),
        drift_matrix=gamma,
        diffusion=d,
        noise_gram=np.zeros((dim, dim), dtype=complex),
        mean_shift=np.zeros(dim),
        drive=np.zeros(dim) if drive is None else np.asarray(drive, dtype=float),
    )


class TestClosedForms:
    def test_isotropic_relaxation(self):
        """Gamma = -I, D = 2I relaxes as V(t) = I + exp(-2t)(V0 - I)."""
        dyn = raw_pair_dynamics(-np.eye(2), 2.0 * np.eye(2))
        v0 = np.array([[3.0, 0.4], [0.4, 5.0]])
        traj = evolve(dyn, np.zeros(2), v0, t_end=1.7)
        for t, v in zip(traj.times, traj.cms):
            want = np.eye(2) + np.exp(-2 * t) * (v0 - np.eye(2))
            assert np.abs(v - want).max() < 1e-10

    def test_mean_decay_with_drive(self):
        dyn = raw_pair_dynamics(-np.eye(2), 2.0 * np.eye(2), drive=[1.0, -2.0])
        x0 = np.array([0.5, 0.5])
        fixed = np.array([1.0, -2.0])  # solves -x + drive = 0
        traj = evolve(dyn, x0, np.eye(2), t_end=2.0)
        for t, x in zip(traj.times, traj.means):
            want = fixed + np.exp(-t) * (x0 - fixed)
            assert np.abs(x - want).max() < 1e-10


class TestSteadyConvergence:
    def test_terminal_cm_matches_solver(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        report = stability_check(dyn)
        t_end = 40.0 / abs(report.spectral_abscissa)
        traj = evolve(dyn, np.zeros(2), 5.0 * np.eye(2), t_end=t_end, dt=5e-3, record_every=1000)
        assert np.abs(traj.final_cm - steady_covariance(dyn)).max() < 1e-6

    def test_relaxation_rate_matches_abscissa(self):
        """The distance to the steady state decays at twice the spectral abscissa."""
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        vss = steady_covariance(dyn)
        traj = evolve(dyn, np.zeros(2), 5.0 * np.eye(2), t_end=8.0, dt=1e-3, record_every=500)
        gaps = np.array([np.abs(v - vss).max() for v in traj.cms])
        # fit log-gap slope over the late-time tail
        tail = slice(8, len(gaps))
        slope = np.polyfit(traj.times[tail], np.log(gaps[tail]), 1)[0]
        # slowest CM mode relaxes at 2 * abscissa = -0.7
        assert slope == pytest.approx(-0.7, rel=0.01)

    def test_symmetry_preserved(self):
        dyn = catalog_build(
            "TwoOscThermal", dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
        ).build()
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=(4, 4))
        v0 = v0 @ v0.T + np.eye(4)
        traj = evolve(dyn, np.zeros(4), v0, t_end=3.0, record_every=200)
        for v in traj.cms:
            assert np.abs(v - v.T).max() < 1e-12


class TestRecording:
    def test_stride_counts(self):
        dyn = raw_pair_dynamics(-np.eye(2), 2.0 * np.eye(2))
        traj = evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, dt=0.01, record_every=10)
        # 100 steps: initial state + every 10th = 11 records
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_final_state_always_recorded(self):
        dyn = raw_pair_dynamics(-np.eye(2), 2.0 * np.eye(2))
        traj = evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, dt=0.01, record_every=33)
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.allclose(traj.final_cm, traj.cms[-1])
        assert np.allclose(traj.final_mean, traj.means[-1])

    def test_default_step_is_stable(self):
        dyn = raw_pair_dynamics(np.array([[-30.0, 0.0], [0.0, -0.2]]), np.eye(2))
        traj = evolve(dyn, np.zeros(2), 4.0 * np.eye(2), t_end=0.5, record_every=100)
        assert np.all(np.isfinite(traj.final_cm))


class TestValidation:
    def test_divergence_aborts_with_step_index(self):
        runaway = raw_pair_dynamics(50.0 * np.eye(2), np.zeros((2, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged at step"):
                evolve(runaway, np.full(2, 1e300), np.eye(2), t_end=1.0, dt=0.1)

    def test_bad_t_end(self):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="t_end"):
            evolve(dyn, np.zeros(2), np.eye(2), t_end=0.0)

    def test_bad_stride(self):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="record_every"):
            evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, record_every=0)

    def test_shape_mismatch(self):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="x0"):
            evolve(dyn, np.zeros(3), np.eye(2), t_end=1.0)
        with pytest.raises(ValueError, match="v0"):
            evolve(dyn, np.zeros(2), np.eye(3), t_end=1.0)


class TestExactness:
    @pytest.mark.parametrize("dt", [0.1, 1.0])
    def test_stiff_diagonal_closed_form(self, dt):
        """Steps far beyond any explicit integrator's stability limit are still exact."""
        rates = np.array([-30.0, -0.2])
        d = np.array([[1.0, 0.3], [0.3, 2.0]])
        drive = np.array([3.0, -0.4])
        dyn = raw_pair_dynamics(np.diag(rates), d, drive=drive)
        x0 = np.array([1.0, 2.0])
        v0 = np.array([[4.0, 0.5], [0.5, 3.0]])
        traj = evolve(dyn, x0, v0, t_end=20.0, dt=dt)
        assert len(traj.times) == round(20.0 / dt) + 1
        pair = rates[:, None] + rates[None, :]
        v_inf = -d / pair
        x_inf = -drive / rates
        for t, x, v in zip(traj.times, traj.means, traj.cms):
            assert np.abs(x - (x_inf + np.exp(rates * t) * (x0 - x_inf))).max() < 1e-12
            assert np.abs(v - (v_inf + np.exp(pair * t) * (v0 - v_inf))).max() < 1e-12

    @pytest.mark.parametrize(
        "cid, params",
        [
            ("OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.55, nbar=0.3)),
            ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
        ],
    )
    def test_non_normal_drift_over_long_strides(self, cid, params):
        """V(t) = V_ss + Phi(t) (V0 - V_ss) Phi(t)^T at every recorded time."""
        dyn = catalog_build(cid, params).build()
        dim = 2 * dyn.n
        vss = steady_covariance(dyn)
        v0 = 5.0 * np.eye(dim)
        t_end = 40.0 / abs(stability_check(dyn).spectral_abscissa)
        traj = evolve(dyn, np.zeros(dim), v0, t_end=t_end, dt=5e-3, record_every=5000)
        assert len(traj.times) > 3
        for t, v in zip(traj.times, traj.cms):
            phi = expm(dyn.drift_matrix * t)
            assert np.abs(v - (vss + phi @ (v0 - vss) @ phi.T)).max() < 1e-12

    @pytest.mark.parametrize("dt", [1e-3, 1e-7])
    def test_fine_grid_keeps_accuracy(self, dt):
        """The grid step sets the recorded times only: a finer grid loses no digits."""
        dyn = catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build()
        vss = steady_covariance(dyn)
        v0 = 5.0 * np.eye(4)
        traj = evolve(dyn, np.zeros(4), v0, t_end=10.0, dt=dt, record_every=10**9)
        assert len(traj.times) == 2
        phi = expm(dyn.drift_matrix * 10.0)
        assert np.abs(traj.final_cm - (vss + phi @ (v0 - vss) @ phi.T)).max() < 1e-13


@st.composite
def stable_drifts(draw):
    """A stable drift matrix of dimension <= 6 and a PSD diffusion matrix.

    The drift is a random (so generally non-normal) matrix plus rotation blocks
    that favour complex eigenvalue pairs, shifted so that its spectral
    abscissa is -gap.
    """
    dim = draw(st.integers(1, 6))
    entries = hnp.arrays(float, (dim, dim), elements=st.floats(-2.0, 2.0))
    a = draw(entries)
    for k, w in enumerate(draw(st.lists(st.floats(0.5, 3.0), max_size=dim // 2))):
        a[2 * k, 2 * k + 1] += w
        a[2 * k + 1, 2 * k] -= w
    gap = draw(st.floats(0.1, 2.0))
    a = a - (np.linalg.eigvals(a).real.max() + gap) * np.eye(dim)
    b = draw(entries)
    return a, b @ b.T, gap


class TestRouteAgreement:
    @settings(max_examples=100, deadline=None)
    @given(stable_drifts(), st.integers(1, 300), st.integers(1, 50))
    def test_final_cm_matches_solve(self, pair, grid, record_every):
        gamma, d, gap = pair
        dim = len(gamma)
        dyn = raw_pair_dynamics(gamma, d)
        t_end = 40.0 / gap
        dt = t_end / grid
        traj = evolve(dyn, np.zeros(dim), 5.0 * np.eye(dim), t_end=t_end, dt=dt, record_every=record_every)
        steps = math.ceil(t_end / dt)
        h = t_end / steps
        ks = [*range(0, steps + 1, record_every)]
        if ks[-1] != steps:
            ks.append(steps)
        assert traj.times.tolist() == [k * h for k in ks]
        vss = solve(gamma, d)
        assert np.abs(traj.final_cm - vss).max() <= 1e-11 * max(1.0, np.abs(vss).max())
