import numpy as np
import pytest

from lindlyap import (
    GaussianDynamics,
    LindbladVector,
    QuadraticHamiltonian,
    Tolerances,
    build_dynamics,
    catalog_build,
    mean_fixed_point,
    realize_lindblad,
    stability_check,
    symplectic_form,
    thermal_bath,
)


def two_mode_thermal(omega1, omega2, kappa, zeta1, zeta2, nbar1, nbar2):
    hq = np.array([[omega1 + kappa / 2, -kappa / 2], [-kappa / 2, omega2 + kappa / 2]])
    hp = np.diag([omega1, omega2])
    h = np.block([[hq, np.zeros((2, 2))], [np.zeros((2, 2)), hp]])
    vectors = thermal_bath(2, 0, zeta1, nbar1) + thermal_bath(2, 1, zeta2, nbar2)
    return build_dynamics(QuadraticHamiltonian(h), vectors)


class TestBuildDynamics:
    def test_two_mode_thermal_matrices(self):
        """Drift and diffusion of two position-coupled damped oscillators."""
        dyn = two_mode_thermal(0.5, 0.7, 1.1, 0.3, 0.4, 0.8, 0.2)
        gamma = np.array(
            [
                [-0.15, 0.0, 0.5, 0.0],
                [0.0, -0.2, 0.0, 0.7],
                [-1.05, 0.55, -0.15, 0.0],
                [0.55, -1.25, 0.0, -0.2],
            ]
        )
        assert np.allclose(dyn.drift_matrix, gamma, atol=1e-14)
        assert np.allclose(dyn.diffusion, np.diag([0.78, 0.56, 0.78, 0.56]), atol=1e-14)
        assert np.allclose(dyn.mean_shift, 0.0)
        assert np.allclose(dyn.drive, 0.0)

    def test_single_mode_squeezing_matrices(self):
        h = np.array([[0.0, 0.15], [0.15, 0.0]])
        lam = np.sqrt(0.5) * np.array([1j, -1.0])
        dyn = build_dynamics(QuadraticHamiltonian(h), [LindbladVector(lam)])
        assert np.allclose(dyn.drift_matrix, np.diag([-0.35, -0.65]), atol=1e-15)
        assert np.allclose(dyn.diffusion, np.eye(2), atol=1e-15)
        upsilon = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        assert np.allclose(dyn.noise_gram, upsilon, atol=1e-15)

    def test_drift_identity(self):
        """Gamma = J H - Im(Upsilon) J for random models."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(2 * n, 2 * n))
            h = 0.5 * (h + h.T)
            vectors = [
                LindbladVector(rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
                for _ in range(int(rng.integers(1, 4)))
            ]
            dyn = build_dynamics(QuadraticHamiltonian(h), vectors)
            j = symplectic_form(n)
            gram = sum(np.outer(v.coupling, v.coupling.conj()) for v in vectors)
            assert np.allclose(dyn.drift_matrix, j @ h - gram.imag @ j, atol=1e-12)
            assert np.allclose(dyn.diffusion, 2.0 * gram.real, atol=1e-12)
            # the Hamiltonian part is traceless, so the trace is purely dissipative
            assert np.trace(dyn.drift_matrix) == pytest.approx(
                -np.trace(gram.imag @ j), abs=1e-12
            )

    def test_mean_shift_and_drive(self):
        lam = np.array([1.0 + 2.0j, 0.5 - 1.0j])
        mu = 0.3 - 0.7j
        xi = np.array([0.2, -0.4])
        dyn = build_dynamics(
            QuadraticHamiltonian(np.zeros((2, 2)), linear=xi),
            [LindbladVector(lam, offset=mu)],
        )
        eta = (np.conj(mu) * lam).imag
        assert np.allclose(dyn.mean_shift, eta, atol=1e-15)
        assert np.allclose(dyn.drive, xi - eta, atol=1e-15)

    def test_closed_dynamics(self):
        """Without any dissipator the flow is purely Hamiltonian and marginal."""
        h = np.diag([1.0, 1.0])
        dyn = build_dynamics(QuadraticHamiltonian(h))
        assert np.allclose(dyn.drift_matrix, symplectic_form(1) @ h)
        assert not dyn.diffusion.any()
        report = stability_check(dyn)
        assert not report.is_stable
        assert report.spectral_abscissa == pytest.approx(0.0, abs=1e-12)

    def test_hessian_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_coupling_length_must_match(self):
        with pytest.raises(ValueError):
            build_dynamics(QuadraticHamiltonian(np.zeros((4, 4))), [LindbladVector(np.ones(2))])


class TestStability:
    def test_cascaded_spectrum(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        report = stability_check(dyn)
        assert report.is_stable
        assert report.spectral_abscissa == pytest.approx(-0.35, abs=1e-12)
        assert np.allclose(np.sort(report.spectrum.real), [-0.65, -0.6, -0.4, -0.35], atol=1e-12)

    def test_above_threshold_unstable(self):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()
        report = stability_check(dyn)
        assert not report.is_stable
        assert report.spectral_abscissa == pytest.approx(0.1, abs=1e-12)

    def test_raw_matrix_input(self):
        report = stability_check(np.array([[-1.0, 10.0], [0.0, -2.0]]))
        assert report.is_stable
        assert report.spectral_abscissa == pytest.approx(-1.0)

    def test_margin_counts_zero_as_unstable(self):
        dyn = catalog_build("OPO", dict(epsilon=1.0, kappa=1.0)).build()
        assert not stability_check(dyn).is_stable

    def test_model_arrays_are_read_only_copies(self):
        drift = np.diag([-1.0, -2.0])
        dyn = GaussianDynamics(np.eye(2), drift, np.eye(2), np.eye(2, dtype=complex), np.zeros(2), np.zeros(2))
        drift[0, 0] = 5.0
        assert dyn.drift_matrix[0, 0] == -1.0
        with pytest.raises(ValueError, match="read-only"):
            dyn.drift_matrix[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            stability_check(dyn).spectrum[0] = 5.0
        assert stability_check(dyn).spectral_abscissa == -1.0

    def test_cached_spectrum_verdict_follows_tolerance(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()  # abscissa -0.35
        assert stability_check(dyn).is_stable
        assert not stability_check(dyn, Tolerances(stability_margin=0.4)).is_stable
        assert stability_check(dyn, Tolerances(stability_margin=0.3)).is_stable


class TestMeanFixedPoint:
    def test_linear_drive(self):
        xi = np.array([1.0, 2.0])
        dyn = build_dynamics(
            QuadraticHamiltonian(np.array([[0.0, 0.15], [0.15, 0.0]]), linear=xi),
            [LindbladVector(np.sqrt(0.5) * np.array([1j, -1.0]))],
        )
        xbar = mean_fixed_point(dyn)
        # drift is diag(-0.35, -0.65); J-rotated drive lands on the same axes
        assert np.allclose(dyn.drift_matrix @ xbar, -dyn.drive, atol=1e-13)

    def test_requires_stability(self):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()
        with pytest.raises(ValueError, match="stable"):
            mean_fixed_point(dyn)

    def test_zero_drive_zero_mean(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        assert np.allclose(mean_fixed_point(dyn), 0.0)


class TestRealizeLindblad:
    @pytest.mark.parametrize(
        "cid, params",
        [
            ("OPO", dict(epsilon=0.3, kappa=1.0)),
            ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
            ("OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)),
        ],
    )
    def test_roundtrip(self, cid, params):
        """Recovering a Hamiltonian and coupling vectors from (Gamma, D)."""
        dyn = catalog_build(cid, params).build()
        real = realize_lindblad(dyn.drift_matrix, dyn.diffusion)
        rebuilt = real.spec.build()
        assert np.allclose(rebuilt.drift_matrix, dyn.drift_matrix, atol=1e-10)
        assert np.allclose(rebuilt.diffusion, dyn.diffusion, atol=1e-10)
        hess = real.hamiltonian.hessian
        assert np.allclose(hess, hess.T, atol=1e-12)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(2 * n, 2 * n))
            h = 0.5 * (h + h.T)
            vectors = [
                LindbladVector(rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
                for _ in range(2 * n)
            ]
            dyn = build_dynamics(QuadraticHamiltonian(h), vectors)
            real = realize_lindblad(dyn.drift_matrix, dyn.diffusion)
            rebuilt = real.spec.build()
            assert np.allclose(rebuilt.drift_matrix, dyn.drift_matrix, atol=1e-9)
            assert np.allclose(rebuilt.diffusion, dyn.diffusion, atol=1e-9)
            assert np.allclose(real.hamiltonian.hessian, h, atol=1e-9)

    def test_unrealizable_pair_rejected(self):
        """Pure damping with no diffusion violates the noise positivity constraint."""
        with pytest.raises(ValueError, match="not realizable"):
            realize_lindblad(-np.eye(2), np.zeros((2, 2)))


class TestFiniteModelData:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: QuadraticHamiltonian([[1.0, np.nan], [np.nan, 1.0]]), "hessian"),
            (lambda: QuadraticHamiltonian([[np.inf, 0.0], [0.0, 1.0]]), "hessian"),
            (lambda: QuadraticHamiltonian(np.eye(2), [0.0, np.nan]), "linear term xi"),
            (lambda: QuadraticHamiltonian(np.eye(2), None, np.inf), "offset h0"),
            (lambda: LindbladVector([1.0, np.inf]), "coupling lambda"),
            (lambda: LindbladVector([1.0, complex(0.0, np.nan)]), "coupling lambda"),
            (lambda: LindbladVector([1.0, 1j], complex(np.nan, 0.0)), "offset mu"),
        ],
    )
    def test_non_finite_entries_refused(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} is not finite"):
            build()


class TestFiniteDrift:
    NAN_DRIFT = np.array([[-1.0, np.nan], [0.0, -1.0]])

    @pytest.mark.parametrize(
        "field", ["hessian", "drift_matrix", "diffusion", "noise_gram", "mean_shift", "drive"]
    )
    def test_dynamics_fields(self, field):
        arrays = dict(
            hessian=np.eye(2),
            drift_matrix=-np.eye(2),
            diffusion=np.eye(2),
            noise_gram=0.5 * np.eye(2, dtype=complex),
            mean_shift=np.zeros(2),
            drive=np.zeros(2),
        )
        arrays[field] = np.full_like(arrays[field], np.inf)
        with pytest.raises(ValueError, match=f"^{field} is not finite"):
            GaussianDynamics(**arrays)

    def test_bare_stability_check(self):
        with pytest.raises(ValueError, match="^drift matrix is not finite"):
            stability_check(self.NAN_DRIFT)

    def test_realize_lindblad_names_the_drift(self):
        with pytest.raises(ValueError, match="^drift matrix is not finite"):
            realize_lindblad(self.NAN_DRIFT, np.eye(2))
