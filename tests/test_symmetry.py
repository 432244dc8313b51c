import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_stable_model, two_mode_symplectic
from lindlyap import (
    CovarianceTransform,
    GaussianDynamics,
    StructureTemplate,
    catalog_build,
    engineer_gibbs_target,
    gibbs_condition,
    invariance_check,
    is_symplectic,
    local_rotation,
    match_template,
    rotation_from_unitary,
    solve,
    squeeze_transform,
    stability_check,
    steady_covariance,
    symplectic_form,
    symplectic_rotation,
    thermal_bath,
    transform_triple,
)
from lindlyap.model import QuadraticHamiltonian, build_dynamics


def raw_pair_dynamics(gamma, diffusion):
    """Wrap a bare (drift, diffusion) pair for the detector functions."""
    gamma = np.asarray(gamma, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    dim = gamma.shape[0]
    return GaussianDynamics(
        hessian=np.zeros((dim, dim)),
        drift_matrix=gamma,
        diffusion=d,
        noise_gram=np.zeros((dim, dim), dtype=complex),
        mean_shift=np.zeros(dim),
        drive=np.zeros(dim),
    )


class TestTransformTriple:
    def test_stationary_equation_is_covariant(self):
        """W V W^T solves the transformed pair whenever V solves the original."""
        rng = np.random.default_rng(6)
        for _ in range(6):
            dyn = random_stable_model(rng)
            v = steady_covariance(dyn)
            w = rng.normal(size=v.shape) + 2.0 * np.eye(v.shape[0])
            gamma_t, d_t, v_t = transform_triple(dyn.drift_matrix, dyn.diffusion, w, cm=v)
            assert np.allclose(solve(gamma_t, d_t), v_t, atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), two_mode_symplectic(1.5, 3))
    def test_solving_the_transformed_pair_gives_w_v_wt(self, seed, w):
        """Frame covariance for a random symplectic W: the solve of (W G W^-1, W D W^T) is W V W^T."""
        dyn = random_stable_model(np.random.default_rng(seed), n=2)
        v = steady_covariance(dyn)
        gamma_t, d_t, v_t = transform_triple(dyn.drift_matrix, dyn.diffusion, w, cm=v)
        assert np.abs(solve(gamma_t, d_t) - v_t).max() <= 1e-8 * np.abs(v_t).max()

    def test_no_cm_returns_none(self):
        _, _, cm = transform_triple(-np.eye(2), np.eye(2), np.eye(2))
        assert cm is None


class TestCovarianceTransform:
    def test_flags(self):
        w = CovarianceTransform(rotation_from_unitary(np.eye(2)))
        assert w.is_orthogonal and w.is_symplectic
        w = CovarianceTransform(squeeze_transform(0.5))
        assert w.is_symplectic and not w.is_orthogonal
        w = CovarianceTransform(np.diag([1.0, 1.0, -1.0, -1.0]))
        assert w.is_orthogonal and not w.is_symplectic
        w = CovarianceTransform(2.0 * np.eye(4))
        assert not w.is_orthogonal and not w.is_symplectic

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="invertible"):
            CovarianceTransform(np.zeros((2, 2)))
        rank_three = np.eye(4)
        rank_three[1] = 2.0 * rank_three[0]
        with pytest.raises(ValueError, match="^transform must be invertible$"):
            CovarianceTransform(rank_three)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^transform is not finite"):
            CovarianceTransform(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("c", np.logspace(-12, 12, 13))
    def test_invertibility_does_not_depend_on_scale(self, c):
        w = c * (np.eye(4) + 0.3 * squeeze_transform(0.5))
        assert np.array_equal(CovarianceTransform(w).matrix, w)

    @pytest.mark.parametrize(
        "w, symplectic",
        [
            (rotation_from_unitary(haar_unitary(np.random.default_rng(3), 2)), True),
            (local_rotation([0.4, -1.2]), True),
            (squeeze_transform(0.5), True),
            (squeeze_transform(10.0), True),
            (squeeze_transform(10.0) @ local_rotation([0.7, 0.1]), True),
            (np.diag([1.0, 1.0, -1.0, -1.0]), False),
            (2.0 * np.eye(4), False),
            (3e-4 * np.eye(4), False),
        ],
        ids=["unitary", "local", "squeeze0.5", "squeeze10", "squeeze10-rotated", "flip", "2I", "3e-4I"],
    )
    def test_symplectic_flag_is_is_symplectic(self, w, symplectic):
        assert CovarianceTransform(w).is_symplectic == is_symplectic(w) == symplectic


class TestInvariance:
    def test_phase_symmetric_model(self):
        """A beam-splitter-like model commutes with the simultaneous q/p rotation."""
        varpi, omega_c = 0.9, 0.25
        hb = np.array([[varpi, omega_c], [omega_c, varpi]])
        h = np.block([[hb, np.zeros((2, 2))], [np.zeros((2, 2)), hb]])
        vectors = thermal_bath(2, 0, 0.3, 0.6) + thermal_bath(2, 1, 0.5, 0.1)
        dyn = build_dynamics(QuadraticHamiltonian(h), vectors)
        rep = invariance_check(dyn.drift_matrix, dyn.diffusion, symplectic_form(2))
        assert rep.gamma_invariant and rep.diffusion_invariant and rep.cm_invariant
        assert match_template(steady_covariance(dyn), StructureTemplate.J_INVARIANT)

    def test_momentum_flip_on_cascade(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        w = np.diag([1.0, 1.0, -1.0, -1.0])
        rep = invariance_check(dyn.drift_matrix, dyn.diffusion, w)
        assert rep.cm_invariant
        assert match_template(steady_covariance(dyn), StructureTemplate.BLOCK_DIAGONAL_QP)

    def test_mode_swap_on_symmetric_model(self):
        dyn = catalog_build(
            "OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        ).build()
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.block([[p, np.zeros((2, 2))], [np.zeros((2, 2)), p]])
        rep = invariance_check(dyn.drift_matrix, dyn.diffusion, w)
        assert rep.cm_invariant

    def test_invariant_pair_factorized_once(self, drift_factorizations):
        dyn = catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build()
        rep = invariance_check(dyn.drift_matrix, dyn.diffusion, np.diag([1.0, 1.0, -1.0, -1.0]))
        assert rep.cm_invariant
        assert drift_factorizations == ["schur"]

    def test_broken_symmetry_detected(self):
        dyn = catalog_build(
            "OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        ).build()
        rep = invariance_check(dyn.drift_matrix, dyn.diffusion, symplectic_form(2))
        assert not rep.gamma_invariant
        assert not rep.cm_invariant


class TestTemplates:
    def test_block_diagonal(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        assert match_template(m, StructureTemplate.BLOCK_DIAGONAL_QP)
        m[0, 2] = m[2, 0] = 0.1
        assert not match_template(m, StructureTemplate.BLOCK_DIAGONAL_QP)

    def test_swap_symmetric(self):
        a = np.array([[1.0, 0.2], [0.2, 1.5]])
        b = np.array([[0.3, 0.1], [0.1, -0.2]])
        m = np.block([[a, b], [b, a]])
        assert match_template(m, StructureTemplate.SWAP_SYMMETRIC)
        m[0, 0] += 0.05
        assert not match_template(m, StructureTemplate.SWAP_SYMMETRIC)

    def test_isotropic_plus_rotation(self):
        m = -0.7 * np.eye(4) + 0.3 * symplectic_form(2)
        assert match_template(m, StructureTemplate.KN_INVARIANT)
        m[0, 1] = 0.01
        assert not match_template(m, StructureTemplate.KN_INVARIANT)

    def test_local_rotation_invariant(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([0.4, -0.1])
        m = np.block([[a, b], [-b, a]])
        assert match_template(m, StructureTemplate.LOCAL_ROTATION_INVARIANT)
        assert match_template(m, StructureTemplate.J_INVARIANT)
        off = m.copy()
        # same off-diagonal entry in both q and p blocks breaks locality but not J
        off[0, 1] = off[1, 0] = 0.2
        off[2, 3] = off[3, 2] = 0.2
        assert not match_template(off, StructureTemplate.LOCAL_ROTATION_INVARIANT)
        assert match_template(off, StructureTemplate.J_INVARIANT)

    def test_j_invariant_negative(self):
        assert not match_template(np.diag([1.0, 2.0]), StructureTemplate.J_INVARIANT)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            match_template(np.eye(3), StructureTemplate.J_INVARIANT)


class TestGibbsCondition:
    def test_single_thermal_mode(self):
        dyn = build_dynamics(
            QuadraticHamiltonian(np.zeros((2, 2))), thermal_bath(1, 0, 0.7, 0.4)
        )
        assert gibbs_condition(dyn) == pytest.approx(1.8, abs=1e-12)

    def test_isotropic_pair_with_rotation(self):
        gamma = -0.6 * np.eye(4) + 0.25 * symplectic_form(2)
        delta = 0.9
        dyn = raw_pair_dynamics(gamma, delta * np.eye(4))
        alpha = gibbs_condition(dyn)
        assert alpha == pytest.approx(delta / 1.2, abs=1e-12)

    def test_reads_the_models_cached_form(self, drift_factorizations):
        dyn = build_dynamics(QuadraticHamiltonian(np.zeros((2, 2))), thermal_bath(1, 0, 0.7, 0.4))
        assert stability_check(dyn).is_stable
        assert gibbs_condition(dyn) == pytest.approx(1.8, abs=1e-12)
        assert drift_factorizations == ["schur"]

    def test_squeezed_reservoir_is_not_isotropic(self):
        res = engineer_gibbs_target(squeeze_transform(0.4), 2.0)
        dyn = raw_pair_dynamics(res.drift_matrix, res.diffusion)
        assert gibbs_condition(dyn) is None

    def test_thermal_two_mode_chain_is_not_isotropic(self):
        spec = catalog_build(
            "TwoOscThermal",
            dict(omega=0.5, kappa=1.0, zeta=0.9, nbar1=0.8, nbar2=0.2),
        )
        assert gibbs_condition(spec.build()) is None


class TestRotations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitary_lift_is_orthogonal_symplectic(self, n):
        rng = np.random.default_rng(n + 40)
        r = rotation_from_unitary(haar_unitary(rng, n))
        assert np.allclose(r @ r.T, np.eye(2 * n), atol=1e-12)
        j = symplectic_form(n)
        assert np.allclose(r @ j @ r.T, j, atol=1e-12)

    def test_local_rotation_adds_angles(self):
        a, b = 0.3, 1.1
        combined = local_rotation([a]) @ local_rotation([b])
        assert np.allclose(combined, local_rotation([a + b]), atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            symplectic_rotation(np.eye(2), np.eye(2))
