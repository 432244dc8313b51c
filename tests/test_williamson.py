import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary

from lindlyap import (
    EngineeringError,
    Tolerances,
    catalog_analytic,
    engineer_covariant_target,
    engineer_gibbs_target,
    is_symplectic,
    local_rotation,
    rotation_from_unitary,
    solve,
    squeeze_transform,
    steady_covariance,
    symplectic_form,
    symplectic_spectrum,
    williamson_decompose,
)


def random_pd(rng, n, floor=0.05):
    a = rng.normal(size=(2 * n, 2 * n))
    return a @ a.T + floor * np.eye(2 * n)


def cascade_pure_symplectic(epsilon2, kappa):
    """Symplectic square root of the pure cascaded steady state (epsilon1 = -epsilon2)."""
    ratio = np.sqrt((kappa - epsilon2) / (kappa + epsilon2))
    up = 0.5 * np.array([[1 + ratio, 1 - ratio], [1 - ratio, 1 + ratio]])
    dn = (0.5 / ratio) * np.array([[1 + ratio, ratio - 1], [ratio - 1, 1 + ratio]])
    s = np.zeros((4, 4))
    s[:2, :2] = up
    s[2:, 2:] = dn
    return s


class TestSymplecticSpectrum:
    def test_single_mode(self):
        assert symplectic_spectrum(np.diag([2.0, 0.5]))[0] == pytest.approx(1.0)
        assert symplectic_spectrum(np.diag([4.0, 1.0]))[0] == pytest.approx(2.0)

    def test_descending_order(self):
        m = np.diag([1.0, 9.0, 1.0, 9.0])  # modes with mu = 1 and mu = 9
        assert np.allclose(symplectic_spectrum(m), [9.0, 1.0])

    def test_squeezing_leaves_spectrum_fixed(self):
        alpha = 2.0
        m = alpha * squeeze_transform(1.3)
        assert np.allclose(symplectic_spectrum(m), [alpha, alpha], atol=1e-12)


class TestWilliamson:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n + 70)
        j = symplectic_form(n)
        for _ in range(12):
            m = random_pd(rng, n)
            dec = williamson_decompose(m)
            assert np.all(np.diff(dec.mu) >= 0)
            assert np.allclose(dec.s @ m @ dec.s.T, dec.lambda_matrix, atol=1e-9 * max(1, np.abs(m).max()))
            assert np.allclose(dec.s @ j @ dec.s.T, j, atol=1e-9)
            assert np.allclose(np.sort(dec.mu), np.sort(symplectic_spectrum(m)), atol=1e-9)

    def test_lambda_matrix(self):
        dec = williamson_decompose(np.diag([4.0, 1.0]))
        assert np.allclose(dec.lambda_matrix, 2.0 * np.eye(2), atol=1e-12)

    def test_degenerate_isotropic(self):
        dec = williamson_decompose(3.0 * np.eye(4))
        assert np.allclose(dec.mu, [3.0, 3.0], atol=1e-12)
        assert np.allclose(dec.s @ dec.s.T, np.eye(4), atol=1e-9)

    def test_physicality_matches_uncertainty_test(self):
        """mu_min >= 1 exactly when V + iJ is PSD."""
        rng = np.random.default_rng(77)
        j = symplectic_form(2)
        for _ in range(30):
            v = random_pd(rng, 2, floor=float(rng.uniform(0.0, 1.5)))
            mu_min = williamson_decompose(v).mu.min()
            eig_min = np.linalg.eigvalsh(v + 1j * j).min()
            if abs(mu_min - 1.0) < 1e-9 or abs(eig_min) < 1e-9:
                continue  # skip knife-edge draws
            assert (mu_min >= 1.0) == (eig_min >= 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            williamson_decompose(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            williamson_decompose(np.array([[1.0, 0.3], [0.0, 1.0]]))


class TestGibbsEngineering:
    def test_squeezed_thermal_target(self):
        nbar, r = 0.5, 0.8
        alpha = 2 * nbar + 1
        res = engineer_gibbs_target(squeeze_transform(r / 2), alpha)
        assert np.allclose(res.target, alpha * squeeze_transform(r), atol=1e-12)
        assert np.allclose(res.drift_matrix, -0.5 * np.eye(4), atol=1e-12)
        v = solve(res.drift_matrix, res.diffusion)
        assert np.abs(v - res.target).max() < 1e-8
        assert res.residual < 1e-12

    def test_realization_rebuilds_the_pair(self):
        res = engineer_gibbs_target(squeeze_transform(0.45), 1.7)
        dyn = res.realization.spec.build()
        assert np.allclose(dyn.drift_matrix, res.drift_matrix, atol=1e-9)
        assert np.allclose(dyn.diffusion, res.diffusion, atol=1e-9)
        assert np.abs(steady_covariance(dyn) - res.target).max() < 1e-8

    def test_pair_is_closed_form(self):
        """A similarity leaves the scalar drift -I/2 unchanged; the diffusion is the target."""
        s, alpha = squeeze_transform(0.45), 1.7
        res = engineer_gibbs_target(s, alpha)
        assert np.array_equal(res.drift_matrix, -0.5 * np.eye(4))
        assert np.array_equal(res.diffusion, alpha * (s @ s.T))
        assert np.array_equal(res.target, res.diffusion)

    @pytest.mark.parametrize("r", [10.0, 30.0, 150.0])
    def test_strong_squeezing_meets_the_target(self, r):
        """The transport never inverts S, so its conditioning e^(2r) does not enter the pair."""
        res = engineer_gibbs_target(squeeze_transform(r), 1.4)
        scale = np.abs(res.target).max()
        assert np.abs(res.steady_cm - res.target).max() <= 1e-13 * scale

    def test_vacuum_target_edge(self):
        res = engineer_gibbs_target(np.eye(2), 1.0)
        assert np.allclose(res.target, np.eye(2), atol=1e-12)

    def test_unphysical_alpha_rejected(self):
        with pytest.raises(EngineeringError, match="alpha"):
            engineer_gibbs_target(np.eye(2), 0.5)

    def test_non_symplectic_transform_rejected(self):
        with pytest.raises(EngineeringError, match="symplectic"):
            engineer_gibbs_target(2.0 * np.eye(2), 2.0)

    def test_alpha_is_judged_by_the_callers_band(self):
        s, alpha = squeeze_transform(0.3), 1 - 1e-7
        with pytest.raises(EngineeringError, match="^alpha must be >= 1 for a physical target"):
            engineer_gibbs_target(s, alpha)
        res = engineer_gibbs_target(s, alpha, tol=Tolerances(eig_zero_band=1e-6, residual_tol=1e-6))
        assert np.abs(res.steady_cm - alpha * (s @ s.T)).max() < 1e-12
        # with residual_tol left at 1e-8 the realization drops the implied Gram matrix's
        # eigenvalue of about -5e-8 inside the band, allows for what it carried, and accepts
        res = engineer_gibbs_target(s, alpha, tol=Tolerances(eig_zero_band=1e-6))
        assert np.abs(res.steady_cm - alpha * (s @ s.T)).max() < 1e-12


two_mode_symplectic_factors = st.one_of(
    st.floats(-4.0, 4.0).map(squeeze_transform),
    st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2).map(local_rotation),
    st.integers(0, 2**32 - 1).map(
        lambda seed: rotation_from_unitary(haar_unitary(np.random.default_rng(seed), 2))
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(two_mode_symplectic_factors, min_size=1, max_size=4), st.floats(1.0, 10.0))
def test_gibbs_drift_is_exactly_minus_half(factors, alpha):
    s = np.linalg.multi_dot([np.eye(4), *factors])
    res = engineer_gibbs_target(s, alpha)
    assert np.array_equal(res.drift_matrix, -0.5 * np.eye(4))
    assert np.abs(res.steady_cm - res.target).max() <= 1e-12 * np.abs(res.target).max()


class TestCovariantEngineering:
    def kappa_pair(self, epsilon1, epsilon2, kappa):
        from lindlyap import catalog_build

        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=epsilon1, epsilon2=epsilon2, kappa=kappa)
        ).build()
        return dyn.drift_matrix, dyn.diffusion

    def test_pure_cascaded_target(self):
        """The pure two-mode steady state via transport of the trivial base."""
        kappa, eps2 = 1.0, -0.3
        g0, d0 = self.kappa_pair(0.0, 0.0, kappa)
        assert np.abs(g0 + g0.T + d0).max() < 1e-12  # identity solves the base pair
        sp = cascade_pure_symplectic(eps2, kappa)
        assert is_symplectic(sp)
        res = engineer_covariant_target(np.eye(4), g0, d0, np.linalg.inv(sp))
        pure = catalog_analytic(
            "CascadedOPO", "pure_cm", dict(epsilon1=0.3, epsilon2=eps2, kappa=kappa)
        )
        assert np.abs(res.target - pure).max() < 1e-10
        assert np.abs(solve(res.drift_matrix, res.diffusion) - res.target).max() < 1e-10
        assert np.allclose(symplectic_spectrum(res.target), [1.0, 1.0], atol=1e-9)

    def test_mixed_normal_form_base(self):
        """A diagonal base covariance transported by a local squeeze."""
        eps = 0.3
        g0, d0 = self.kappa_pair(0.0, eps, 1.0)
        lam = np.diag([1.0, 1.0 / (1.0 - eps), 1.0, 1.0 / (1.0 + eps)])
        assert np.abs(g0 @ lam + lam @ g0.T + d0).max() < 1e-12
        w = squeeze_transform(0.35)
        res = engineer_covariant_target(lam, g0, d0, w)
        w_inv = np.linalg.inv(w)
        assert np.allclose(res.target, w_inv @ lam @ w_inv.T, atol=1e-12)
        assert np.abs(solve(res.drift_matrix, res.diffusion) - res.target).max() < 1e-9

    def test_wrong_base_cm_rejected(self):
        g0, d0 = self.kappa_pair(0.0, 0.0, 1.0)
        with pytest.raises(EngineeringError, match="does not solve"):
            engineer_covariant_target(2.0 * np.eye(4), g0, d0, np.eye(4))

    def test_unstable_transport_rejected(self):
        # transporting an unstable base drift fails the stability gate
        g0 = np.diag([0.1, -1.0])
        d0 = np.eye(2)
        lam = solve(g0 - 0.2 * np.eye(2), d0)  # deliberately inconsistent base
        with pytest.raises(EngineeringError):
            engineer_covariant_target(lam, g0, d0, np.eye(2))


ENGINEERED = {
    "gibbs": lambda: engineer_gibbs_target(squeeze_transform(0.4), 1.5),
    "covariant": lambda: engineer_covariant_target(
        np.diag([1.5, 2.0, 1.5, 2.0]), -0.5 * np.eye(4), np.diag([1.5, 2.0, 1.5, 2.0]), squeeze_transform(0.3)
    ),
}


class TestEngineeredPairSolvedOnce:
    @pytest.mark.parametrize("method", ENGINEERED)
    def test_one_drift_factorization(self, drift_factorizations, method):
        """The stability gate and the solve of an engineered pair share one Schur form."""
        ENGINEERED[method]()
        assert drift_factorizations == ["schur"]

    @pytest.mark.parametrize("method", ENGINEERED)
    def test_reservoir_carries_its_solved_covariance(self, method):
        res = ENGINEERED[method]()
        assert np.array_equal(res.steady_cm, solve(res.drift_matrix, res.diffusion))
        assert np.abs(res.steady_cm - res.target).max() < 1e-12
