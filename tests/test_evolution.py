import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from lindlyap import (
    GaussianDynamics,
    catalog_build,
    evolution,
    evolve,
    lyapunov,
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

    def test_default_grid_is_bounded_by_the_horizon(self):
        """At rates of 1e-9 the absolute step 1e-3 would cut t_end = 1e4 into 1e7 steps; the
        floor t_end / MAX_DEFAULT_STEPS keeps it at 1e6, so every 1e5th step gives 11 records."""
        dyn = raw_pair_dynamics(-1e-9 * np.eye(2), 2e-9 * np.eye(2))
        traj = evolve(dyn, np.zeros(2), 4.0 * np.eye(2), t_end=1e4, record_every=10**5)
        assert evolution.MAX_DEFAULT_STEPS == 10**6
        assert len(traj.times) == 11
        assert traj.times[-1] == 1e4
        assert np.abs(traj.final_cm - (np.eye(2) + 3.0 * np.exp(-2e-5) * np.eye(2))).max() <= 1e-14


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

    @pytest.mark.parametrize("record_every", [0, -3, 2.5, 3.0, "3", True, np.bool_(True), None])
    def test_bad_stride(self, record_every):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="record_every"):
            evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, record_every=record_every)

    def test_numpy_integer_stride(self):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        want = evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, dt=0.01, record_every=7)
        got = evolve(dyn, np.zeros(2), np.eye(2), t_end=1.0, dt=0.01, record_every=np.int64(7))
        assert np.array_equal(got.times, want.times) and np.array_equal(got.cms, want.cms)

    def test_complex_moments(self):
        """A nonzero imaginary part is refused by name; a zero one reads as the real part."""
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="^x0 must be real, got a nonzero imaginary part$"):
            evolve(dyn, np.array([1.0, 1j]), np.eye(2), t_end=1.0)
        with pytest.raises(ValueError, match="^v0 must be real, got a nonzero imaginary part$"):
            evolve(dyn, np.zeros(2), np.eye(2) * (1 + 1j), t_end=1.0)
        x0, v0 = np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        want = evolve(dyn, x0, v0, t_end=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evolve(dyn, x0 + 0j, v0 + 0j, t_end=1.0)
        assert np.array_equal(got.means, want.means) and np.array_equal(got.cms, want.cms)

    def test_shape_mismatch(self):
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="x0"):
            evolve(dyn, np.zeros(3), np.eye(2), t_end=1.0)
        with pytest.raises(ValueError, match="v0"):
            evolve(dyn, np.zeros(2), np.eye(3), t_end=1.0)

    def test_v0_within_roundoff_of_symmetric(self):
        """v0 is read as a --cm document is: symmetric within residual_tol, and its symmetric part is used."""
        dyn = raw_pair_dynamics(-np.eye(2), np.eye(2))
        v0 = np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert np.array_equal(evolve(dyn, np.zeros(2), v0, t_end=1.0).cms[0], 0.5 * v0 + 0.5 * v0.T)


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


class TestDoubledRecording:
    """Recorded states are filled by doubling the stride map: check every index."""

    GAMMA = np.array([[-0.3, 1.0], [-0.8, -0.5]])  # non-normal, complex eigenvalue pair
    D = np.array([[1.0, 0.2], [0.2, 0.6]])
    DRIVE = np.array([0.4, -0.7])

    @pytest.mark.parametrize("tail", [0, 2])
    @pytest.mark.parametrize("strides", [*range(1, 10), 16, 17, 31, 32, 33])
    def test_every_record_matches_closed_form(self, strides, tail):
        dyn = raw_pair_dynamics(self.GAMMA, self.D, drive=self.DRIVE)
        x0 = np.array([1.5, -0.5])
        v0 = np.array([[3.0, 0.4], [0.4, 2.0]])
        steps = 3 * strides + tail
        h = 0.25  # a binary fraction, so that the grid has exactly `steps` steps
        traj = evolve(dyn, x0, v0, t_end=h * steps, dt=h, record_every=3)
        ks = [*range(0, steps + 1, 3)] + ([steps] if tail else [])
        assert len(traj.times) == strides + 1 + (1 if tail else 0)
        assert traj.times.tolist() == [k * h for k in ks]
        vss = solve(self.GAMMA, self.D)
        xss = np.linalg.solve(self.GAMMA, -self.DRIVE)
        for t, x, v in zip(traj.times, traj.means, traj.cms):
            phi = expm(self.GAMMA * t)
            assert np.abs(x - (xss + phi @ (x0 - xss))).max() < 1e-12
            assert np.abs(v - (vss + phi @ (v0 - vss) @ phi.T)).max() < 1e-12
            assert np.array_equal(v, v.T)

    @pytest.mark.parametrize("rate, decay, t_end", [(0.5, 1.0, 4000.0), (40.0, 0.01, 60.0)])
    def test_unexcited_unstable_mode_stays_finite(self, rate, decay, t_end):
        """exp(rate t) overflows once rate t > 709.8, but it only ever multiplies zeros.

        A stride map squared past that point would not be finite, so the
        largest finite map goes on filling the trajectory block by block, and
        the stable mode still follows its closed form.
        """
        dyn = raw_pair_dynamics(np.diag([rate, -decay]), np.diag([0.0, 1.0]))
        traj = evolve(dyn, np.zeros(2), np.diag([0.0, 1.0]), t_end=t_end, dt=1.0)
        assert len(traj.times) == t_end + 1
        assert np.all(np.isfinite(traj.means)) and np.all(np.isfinite(traj.cms))
        assert not traj.means.any() and not traj.cms[:, 0, :].any()
        v_inf = 0.5 / decay
        want = v_inf + (1.0 - v_inf) * np.exp(-2.0 * decay * traj.times)
        assert np.abs(traj.cms[:, 1, 1] - want).max() < 1e-12 * v_inf

    @pytest.mark.parametrize(
        "gamma, x0, v0, record_every, step",
        [
            # V = exp(2t) I overflows first at t = 355
            (np.eye(2), np.zeros(2), np.eye(2), 1, 355),
            (np.eye(2), np.zeros(2), np.eye(2), 4, 356),
            (np.eye(2), np.zeros(2), np.eye(2), 100, 400),
            # x = exp(t) overflows first at t = 710, V stays finite
            (np.diag([1.0, -1.0]), np.ones(2), np.diag([0.0, 1.0]), 1, 710),
            (np.diag([1.0, -1.0]), np.ones(2), np.diag([0.0, 1.0]), 7, 714),
        ],
    )
    def test_divergence_names_first_non_finite_record(self, gamma, x0, v0, record_every, step):
        dyn = raw_pair_dynamics(gamma, np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match=rf"^moments diverged at step {step} \(t = {step}\)$"):
            evolve(dyn, x0, v0, t_end=1000.0, dt=1.0, record_every=record_every)


def reference_trajectory(dyn, x0, v0, t_end, dt, record_every):
    """evolve's recording with each block computed as 0.5 ((Phi V) Phi^T + W + transpose) into fresh
    arrays and copied into place: the same grid, doubling, overflow guard and tail stride."""
    dim = len(x0)
    steps = max(1, math.ceil(t_end / dt))
    h = t_end / steps
    full, tail = divmod(steps, record_every)
    ks = np.arange(0, steps + 1, record_every)
    if tail:
        ks = np.append(ks, steps)
    means = np.empty((len(ks), dim))
    cms = np.empty((len(ks), dim, dim))
    means[0], cms[0] = x0, 0.5 * (v0 + v0.T)

    def advance(flow, src, dst, size):
        e, w = flow
        phi, c, w = e[:dim, :dim], e[:dim, dim], w[:dim, :dim]
        xs = means[src : src + size] @ phi.T + c
        vs = phi @ cms[src : src + size] @ phi.T + w
        vs = 0.5 * (vs + vs.transpose(0, 2, 1))
        finite = np.isfinite(xs).all(axis=1) & np.isfinite(vs).all(axis=(1, 2))
        if not finite.all():
            k = ks[dst + int(np.argmin(finite))]
            raise RuntimeError(f"moments diverged at step {k} (t = {k * h:.6g})")
        means[dst : dst + size] = xs
        cms[dst : dst + size] = vs

    with np.errstate(over="ignore", invalid="ignore"):
        if full:
            flow, m, done, doubling = evolution._flow(dyn, record_every * h), 1, 1, True
            while done <= full:
                size = min(m, full + 1 - done)
                advance(flow, done - m, done, size)
                done += size
                if doubling and done <= full:
                    wide = lyapunov._square(*flow)
                    doubling = all(np.isfinite(a).all() for a in wide)
                    if doubling:
                        flow, m = wide, 2 * m
        if tail:
            advance(evolution._flow(dyn, tail * h), full, full + 1, 1)
    return ks * h, means, cms


class TestInPlaceRecording:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
        st.floats(-2.0, 1.5),
        st.integers(1, 400),
        st.integers(1, 50),
        st.sampled_from([0.01, 0.3, 2.0, 50.0]),
    )
    def test_bit_identical_to_fresh_block_products(self, dim, seed, shift, steps, record_every, h):
        """Recorded moments equal, bit for bit, blocks computed as (Phi V) Phi^T in fresh arrays,
        and a divergence gives the same message; a positive shift with long strides diverges."""
        rng = np.random.default_rng(seed)
        gamma = rng.normal(size=(dim, dim)) / math.sqrt(dim) + shift * np.eye(dim)
        b = rng.normal(size=(dim, dim))
        dyn = raw_pair_dynamics(gamma, b @ b.T, drive=rng.normal(size=dim))
        x0 = rng.normal(size=dim)
        v0 = rng.normal(size=(dim, dim))
        v0 = v0 + v0.T  # evolve refuses a v0 that is not symmetric
        t_end = steps * h
        try:
            want = reference_trajectory(dyn, x0, v0, t_end, h, record_every)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                evolve(dyn, x0, v0, t_end=t_end, dt=h, record_every=record_every)
            return
        traj = evolve(dyn, x0, v0, t_end=t_end, dt=h, record_every=record_every)
        for got, ref in zip((traj.times, traj.means, traj.cms), want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
