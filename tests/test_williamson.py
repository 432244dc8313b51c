import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_physical_cm, two_mode_symplectic

import lindlyap.model
from lindlyap import (
    DEFAULT_TOL,
    EngineeringError,
    Tolerances,
    catalog_analytic,
    catalog_build,
    engineer_covariant_target,
    engineer_gibbs_target,
    engineer_target,
    is_symplectic,
    physical_spectrum,
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

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_takes_no_eigenvectors(self, monkeypatch, seed):
        """The spectrum and the physicality test take nu from eigvalsh; only the normal form takes
        the eigenvectors too.  Both give the same nu to rounding."""
        v = random_physical_cm(np.random.default_rng(seed), 1 + seed)
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        nu = symplectic_spectrum(v)
        assert calls == ["eigh", "eigvalsh"]
        assert np.array_equal(physical_spectrum(v), nu)
        assert calls == ["eigh", "eigvalsh"] * 2
        mu = williamson_decompose(v).mu
        assert calls == ["eigh", "eigvalsh"] * 2 + ["eigh", "eigh"]
        assert np.abs(nu[::-1] - mu).max() <= 1e-13 * mu.max()

    @pytest.mark.parametrize("m", [np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.array([[2.0, 3.0], [3.0, 2.0]])])
    def test_rejects_a_matrix_that_is_not_positive_definite(self, m):
        for spectrum in (symplectic_spectrum, lambda m: williamson_decompose(m).mu):
            with pytest.raises(ValueError, match="^matrix must be positive definite, smallest eigenvalue -?[0-9]"):
                spectrum(m)


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

    def test_carries_the_deviations_it_verified(self):
        m = random_pd(np.random.default_rng(5), 2)
        dec = williamson_decompose(m)
        j = symplectic_form(2)
        assert dec.diag_deviation == np.abs(dec.s @ m @ dec.s.T - dec.lambda_matrix).max()
        assert dec.form_deviation == np.abs(dec.s @ j @ dec.s.T - j).max()

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

    @pytest.mark.parametrize("cid, params", [
        ("OPOThermal", dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)),
        ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
        ("TwoOscThermal", dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)),
    ])
    def test_gauge_is_stable_under_ulp_changes(self, cid, params):
        """The phase rule fixes each mode's rotation, so a symmetric change of up to 2 ulp per
        entry moves S by rounding only, also on the mirror-symmetric two-mode states."""
        v = steady_covariance(catalog_build(cid, params).build())
        s = williamson_decompose(v).s
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = np.triu(rng.integers(-2, 3, size=v.shape))
            moved = williamson_decompose(v + (k + np.triu(k, 1).T) * np.spacing(v)).s
            assert np.abs(moved - s).max() <= 1e-10

    def test_equal_pair_on_which_a_real_schur_iteration_stalls(self):
        """A TMTSS steady state (two equal symplectic eigenvalues) on which scipy's real Schur
        form raises "Schur form not found"; the Hermitian eigensolve decomposes it."""
        nbar = 0.07993021865921003
        v = steady_covariance(catalog_build("TMTSS", dict(r=0.8273759352833956, nbar=nbar)).build())
        dec = williamson_decompose(v)
        assert dec.mu == pytest.approx([2 * nbar + 1] * 2, rel=1e-6)
        assert is_symplectic(dec.s)

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


@settings(max_examples=100, deadline=None)
@given(two_mode_symplectic(4.0, 4), st.floats(1.0, 10.0))
def test_gibbs_drift_is_exactly_minus_half(s, alpha):
    res = engineer_gibbs_target(s, alpha)
    assert np.array_equal(res.drift_matrix, -0.5 * np.eye(4))
    assert np.abs(res.steady_cm - res.target).max() <= 1e-12 * np.abs(res.target).max()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_williamson_identities_on_physical_states(n, seed):
    """S V S^T = diag(nu, nu) with S symplectic, nu >= 1 within the band, nu the symplectic spectrum."""
    v = random_physical_cm(np.random.default_rng(seed), n)
    dec = williamson_decompose(v)
    scale = np.abs(v).max()
    assert np.abs(dec.s @ v @ dec.s.T - dec.lambda_matrix).max() <= 1e-9 * scale
    assert is_symplectic(dec.s)
    assert dec.mu.min() >= 1.0 - Tolerances().eig_zero_band * scale
    assert np.abs(dec.mu - symplectic_spectrum(v)[::-1]).max() <= 1e-9 * scale


class TestEngineerTarget:
    @settings(max_examples=100, deadline=None)
    @given(two_mode_symplectic(2.0, 3), st.lists(st.floats(1.0, 6.0), min_size=2, max_size=2))
    def test_pair_is_the_target_itself(self, s, nu):
        """Any physical V: the pair is exactly (-I/2, V), its solve returns V, and its
        Lindblad realization rebuilds the pair."""
        v = s @ np.diag(nu + nu) @ s.T
        v = 0.5 * (v + v.T)
        res = engineer_target(v)
        assert np.array_equal(res.target, v)
        assert np.array_equal(res.drift_matrix, -0.5 * np.eye(4))
        assert np.array_equal(res.diffusion, res.target)
        assert np.array_equal(res.steady_cm, res.target)
        dyn = res.realization.spec.build()
        scale = np.abs(v).max()
        assert np.abs(dyn.drift_matrix + 0.5 * np.eye(4)).max() <= 1e-9 * scale
        assert np.abs(dyn.diffusion - v).max() <= 1e-9 * scale

    @settings(max_examples=100, deadline=None)
    @given(
        two_mode_symplectic(0.0, 3), st.floats(6.0, 6.5), st.floats(0.05, 0.9), st.floats(1.0, 6.0), st.booleans()
    )
    def test_refuses_a_symplectic_eigenvalue_below_one(self, s, squeeze, low, high, low_first):
        """Refused under rotations and a two-mode squeeze of 6 to 6.5 (cond(V) up to 2e13), where
        the rounding error of nu, 8 eps cond(V) max(nu), stays below its distance to 1."""
        nu = [low, high] if low_first else [high, low]
        s = s @ squeeze_transform(squeeze)
        v = s @ np.diag(nu + nu) @ s.T
        with pytest.raises(EngineeringError, match="^target is not physical: smallest symplectic eigenvalue 0"):
            engineer_target(0.5 * (v + v.T))

    @pytest.mark.parametrize("r", [3.0, 5.5, 8.0, 50.0, 300.0])
    def test_a_squeezed_mode_is_judged_at_any_squeezing(self, r):
        """Balancing q against p makes an uncorrelated squeezed mode well conditioned."""
        squeezed = np.diag([np.exp(2 * r), np.exp(-2 * r)])
        assert physical_spectrum(squeezed) == pytest.approx([1.0], rel=1e-15)
        with pytest.raises(EngineeringError, match="^target is not physical: smallest symplectic eigenvalue 0\\.[45]"):
            engineer_target(0.5 * squeezed)

    def test_spectrum_is_none_beyond_the_band(self):
        """TMTSS's rounding error passes the zero band near r = 8: the target is built, its
        spectrum not reported."""
        for r, nu in ((0.8, [1.4, 1.4]), (5.0, [1.4, 1.4]), (8.0, None), (30.0, None)):
            v = catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=0.2))
            assert physical_spectrum(v) == (nu if nu is None else pytest.approx(nu))
            assert np.array_equal(engineer_target(v).steady_cm, v)

    def test_mixed_and_pure_targets(self):
        """Unequal symplectic eigenvalues and a pure entangled state are both reached exactly."""
        pure = catalog_analytic("CascadedOPO", "pure_cm", dict(epsilon1=0.3, epsilon2=-0.3, kappa=1.0))
        for v in (np.diag([3.0, 1.0, 3.0, 1.0]), pure):
            res = engineer_target(v)
            assert np.array_equal(res.steady_cm, v)
        assert len(res.realization.vectors) == 2  # a pure state of two modes needs two jump operators

    def test_band_follows_the_tolerances(self):
        s = squeeze_transform(0.3)
        v = (1 - 1e-7) * (s @ s.T)
        with pytest.raises(EngineeringError, match="^target is not physical"):
            engineer_target(v)
        res = engineer_target(v, Tolerances(eig_zero_band=1e-6, residual_tol=1e-6))
        assert np.array_equal(res.steady_cm, res.target)

    def test_refuses_malformed_input(self):
        with pytest.raises(ValueError, match="^target covariance matrix is not Hermitian"):
            engineer_target(np.array([[2.0, 0.5], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="^target covariance matrix must be 2n x 2n"):
            engineer_target(np.eye(3))

    def test_gibbs_target_is_the_same_pair(self):
        s, alpha = squeeze_transform(0.45), 1.7
        gibbs, direct = engineer_gibbs_target(s, alpha), engineer_target(alpha * (s @ s.T))
        assert np.array_equal(gibbs.drift_matrix, direct.drift_matrix)
        assert np.array_equal(gibbs.diffusion, direct.diffusion)
        assert np.array_equal(gibbs.steady_cm, direct.steady_cm)


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
    "target": lambda: engineer_target(np.diag([1.5, 2.0, 1.5, 2.0])),
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
        assert res.target_deviation == np.abs(res.steady_cm - res.target).max() < 1e-12


@pytest.fixture
def model_constructions(monkeypatch):
    """Names of the model-layer objects made from here on: build_dynamics runs and LindbladVectors."""
    calls = []
    build, vector = lindlyap.model.build_dynamics, lindlyap.model.LindbladVector

    def counted_build(*args, **kwargs):
        calls.append("build_dynamics")
        return build(*args, **kwargs)

    def counted_vector(*args, **kwargs):
        calls.append("LindbladVector")
        return vector(*args, **kwargs)

    monkeypatch.setattr(lindlyap.model, "build_dynamics", counted_build)
    monkeypatch.setattr(lindlyap.model, "LindbladVector", counted_vector)
    return calls


class TestRealizationBuiltOnDemand:
    @pytest.mark.parametrize("method", ENGINEERED)
    def test_no_model_is_built_to_check_the_realization(self, model_constructions, method):
        """The round trip is checked on arrays; the vectors are made on their first read and kept."""
        res = ENGINEERED[method]()
        assert model_constructions == []
        assert not res.realization.couplings.flags.writeable
        vectors = res.realization.vectors
        assert model_constructions == ["LindbladVector"] * len(vectors)
        assert res.realization.vectors is vectors

    @pytest.mark.parametrize("method", ENGINEERED)
    def test_vectors_are_those_of_the_eager_construction(self, method):
        """One sqrt(eigenvalue) * eigenvector of the noise Gram matrix per eigenvalue above the band."""
        real = ENGINEERED[method]().realization
        eigval, eigvec = np.linalg.eigh(real.noise_gram)
        band = DEFAULT_TOL.eig_zero_band * max(1.0, np.abs(eigval).max())
        want = [np.sqrt(val) * eigvec[:, k] for k, val in enumerate(eigval) if val > band]
        assert len(real.vectors) == len(want) > 0
        assert all(np.array_equal(v.coupling, w) for v, w in zip(real.vectors, want))
