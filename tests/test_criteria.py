import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindlyap.criteria
from conftest import local_rotation, locate_flip, random_physical_cm, random_stable_model
from lindlyap import (
    Classicality,
    Conclusiveness,
    Level,
    Partition,
    Separability,
    Steerability,
    Uncertainty,
    Verdict,
    catalog_analytic,
    catalog_build,
    environment_criterion,
    realize_lindblad,
    solve,
    stability_check,
    state_criterion,
    steady_covariance,
    symplectic_form,
    transform_triple,
    xi_matrix,
)
from lindlyap.core import DEFAULT_TOL, Tolerances, check_hermitian, classify_spectrum

HALF = Partition(2, frozenset({1}))


def opo_thermal(zeta, epsilon=0.05, kappa=0.8, nbar=0.3):
    return catalog_build(
        "OPOThermal", dict(epsilon=epsilon, kappa=kappa, zeta=zeta, nbar=nbar)
    ).build()


class TestPartition:
    def test_parts(self):
        part = Partition(3, frozenset({0, 2}))
        assert part.part_one == (1,)
        assert part.part_two == (0, 2)

    @pytest.mark.parametrize(
        "count, flip, what",
        [
            (2, frozenset(), "part two"),
            (2, frozenset({0, 1}), "part two"),
            (2, frozenset({5}), "mode indices"),
            (2, frozenset({0.7}), "flipped_modes"),
            (2, frozenset({True}), "flipped_modes"),
            (2.0, frozenset({1}), "mode_count"),
            (True, frozenset({0}), "mode_count"),
            (3, 1, "flipped_modes"),
        ],
        ids=["flip0", "flip1", "flip2", "float-mode", "bool-mode", "float-count", "bool-count", "int-flip"],
    )
    def test_invalid_partitions(self, count, flip, what):
        with pytest.raises(ValueError, match=what):
            Partition(count, flip)

    def test_numpy_integers_are_mode_indices(self):
        part = Partition(np.int64(3), frozenset({np.int64(1)}))
        assert part.part_one == (0, 2)
        assert part.part_two == (1,)

    def test_steered_part_validated(self):
        for steered_part in (3, 0, True, 1.0):
            with pytest.raises(ValueError, match="steered_part"):
                Steerability(HALF, steered_part=steered_part)

    def test_steered_modes(self):
        part = Partition(3, frozenset({0, 2}))
        assert Steerability(part, 1).steered == (1,)
        assert Steerability(part, np.int64(2)).steered == (0, 2)


class TestXiMatrix:
    def test_uncertainty(self):
        assert np.array_equal(xi_matrix(Uncertainty(), 2), 1j * symplectic_form(2))

    def test_classicality(self):
        assert np.array_equal(xi_matrix(Classicality(), 2), -np.eye(4))

    def test_separability(self):
        xi = xi_matrix(Separability(HALF), 2)
        expected = 1j * np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [-1, 0, 0, 0],
                [0, 1, 0, 0],
            ],
            dtype=float,
        )
        assert np.allclose(xi, expected)

    def test_steerability_projects_out_the_steering_part(self):
        # the steered mode keeps its symplectic block, the other one is zeroed
        xi = xi_matrix(Steerability(HALF, steered_part=1), 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1j
        expected[2, 0] = -1j
        assert np.allclose(xi, expected)
        xi = xi_matrix(Steerability(HALF, steered_part=2), 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = 1j
        expected[3, 1] = -1j
        assert np.allclose(xi, expected)

    @pytest.mark.parametrize(
        "kind",
        [
            Uncertainty(),
            Classicality(),
            Separability(Partition(3, frozenset({2}))),
            Steerability(Partition(3, frozenset({0, 1})), 2),
        ],
    )
    def test_hermitian(self, kind):
        xi = xi_matrix(kind, 3)
        assert np.allclose(xi, xi.conj().T)

    def test_partition_size_must_match(self):
        with pytest.raises(ValueError, match="modes"):
            xi_matrix(Separability(HALF), 3)

    @pytest.mark.parametrize("n", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_mode_count_must_be_an_integer(self, n):
        xi_matrix(Uncertainty(), 2)  # an equal key's cached entry must not let a non-integer through
        with pytest.raises(ValueError, match="^mode count must be an integer"):
            xi_matrix(Uncertainty(), n)


class TestStateCriteria:
    def test_vacuum_is_marginal(self):
        res = state_criterion(np.eye(4), Uncertainty())
        assert res.verdict is Verdict.MARGINAL
        assert np.allclose(res.spectrum, [0.0, 0.0, 2.0, 2.0], atol=1e-12)
        assert res.conclusiveness is Conclusiveness.IFF
        assert res.level is Level.STATE

    def test_thermal_state_is_classical(self):
        res = state_criterion(2.0 * np.eye(4), Classicality())
        assert res.verdict is Verdict.HOLDS
        assert res.conclusion == "holds"

    def test_vacuum_classicality_is_marginal(self):
        assert state_criterion(np.eye(2), Classicality()).verdict is Verdict.MARGINAL

    def test_squeezed_state_is_nonclassical(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        res = state_criterion(steady_covariance(dyn), Classicality())
        assert res.verdict is Verdict.VIOLATED
        assert res.inertia.negative == 1

    def test_asymmetric_cm_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            state_criterion(np.array([[1.0, 0.2], [0.0, 1.0]]), Uncertainty())

    def test_product_thermal_is_separable_and_unsteerable(self):
        v = np.diag([1.8, 1.8, 3.0, 3.0])  # block layout, two modes
        assert state_criterion(v, Separability(HALF)).verdict is Verdict.HOLDS
        one = state_criterion(v, Steerability(HALF, 1))
        two = state_criterion(v, Steerability(HALF, 2))
        assert one.verdict is Verdict.HOLDS
        assert two.verdict is Verdict.HOLDS

    def test_ppt_label_only_on_many_vs_many_splits(self):
        v = np.diag([1.5, 1.5, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0])  # four product modes
        res = state_criterion(v, Separability(Partition(4, frozenset({2, 3}))))
        assert res.verdict is Verdict.HOLDS
        assert res.label == "PPT (separable or bound entangled)"
        res = state_criterion(
            np.diag([1.5, 1.5, 2.0, 2.0]), Separability(HALF)
        )
        assert res.label == ""


class TestEnvironmentCriteria:
    def test_uncertainty_reduces_to_noise_gram(self):
        """The uncertainty test never fails: it equals twice the conjugate Gram matrix."""
        rng = np.random.default_rng(2)
        for _ in range(6):
            dyn = random_stable_model(rng)
            res = environment_criterion(dyn, Uncertainty())
            assert res.verdict is Verdict.HOLDS
            assert res.conclusiveness is Conclusiveness.IFF
            assert np.allclose(res.tested_matrix, 2.0 * dyn.noise_gram.conj(), atol=1e-12)

    def test_symmetric_drift_gives_two_sided_tests(self):
        """A symmetric drift gives a two-sided test where it also commutes with the shifted diffusion
        D^: for classicality (Xi = -I, so D^ = D + 2 Gamma), but not for separability here."""
        dyn = opo_thermal(1.5)
        assert environment_criterion(dyn, Classicality()).conclusiveness is Conclusiveness.IFF
        res = environment_criterion(dyn, Separability(HALF))
        g = dyn.drift_matrix @ res.tested_matrix
        assert np.abs(g - g.conj().T).max() == pytest.approx(0.075, abs=1e-12)  # [Gamma, D^] != 0
        assert res.conclusiveness is Conclusiveness.SUFFICIENT_ONLY
        assert np.allclose(res.spectrum, [0.1, 1.7, 3.1, 4.7], atol=1e-12)
        assert res.verdict is Verdict.HOLDS

    def test_nonsymmetric_drift_is_sufficient_only(self):
        spec = catalog_build(
            "TwoOscThermal",
            dict(omega=0.5, kappa=1.0, zeta=0.9, nbar1=0.8, nbar2=0.2),
        )
        res = environment_criterion(spec.build(), Classicality())
        assert res.conclusiveness is Conclusiveness.SUFFICIENT_ONLY

    def test_requires_stability(self):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()
        with pytest.raises(ValueError, match="stable"):
            environment_criterion(dyn, Classicality())

    def test_violated_sufficient_test_is_inconclusive(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        res = environment_criterion(dyn, Separability(HALF))
        assert res.verdict is Verdict.VIOLATED
        assert res.conclusiveness is Conclusiveness.SUFFICIENT_ONLY
        assert res.conclusion == "inconclusive"

    def test_cascaded_separability_spectrum(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        res = environment_criterion(dyn, Separability(HALF))
        root5 = np.sqrt(5.0)
        assert np.allclose(res.spectrum, [1.0 - root5, 0.0, 2.0, 1.0 + root5], atol=1e-10)

    def test_cascaded_steering_spectra(self):
        """Both steering directions on the cascade, with the frozen spectra."""
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        one = environment_criterion(dyn, Steerability(HALF, 1))
        two = environment_criterion(dyn, Steerability(HALF, 2))
        r17, r5 = np.sqrt(17.0), np.sqrt(5.0)
        assert np.allclose(
            one.spectrum, [(3.0 - r17) / 2, 0.0, 1.0, (3.0 + r17) / 2], atol=1e-10
        )
        assert np.allclose(
            two.spectrum,
            [(1.0 - r5) / 2, (3.0 - r5) / 2, (1.0 + r5) / 2, (3.0 + r5) / 2],
            atol=1e-10,
        )

    def test_symmetric_model_steers_equally_both_ways(self):
        dyn = opo_thermal(1.5)
        one = environment_criterion(dyn, Steerability(HALF, 1))
        two = environment_criterion(dyn, Steerability(HALF, 2))
        assert np.allclose(one.spectrum, two.spectrum, atol=1e-12)
        assert np.allclose(one.spectrum, [0.8, 2.3, 2.5, 4.0], atol=1e-12)


CATALOG_POINTS = [
    ("TwoOscThermal", dict(omega1=0.5, omega2=0.9, kappa=1.0, zeta1=0.7, zeta2=1.1, nbar1=0.3, nbar2=0.1)),
    ("TwoOscRWA", dict(varpi=1.0, Omega=0.3, zeta1=0.5, zeta2=0.7, nbar1=0.2, nbar2=0.4)),
    ("OPO", dict(epsilon=0.3, kappa=1.0)),
    ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
    ("OPOThermal", dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)),
    ("TMTSS", dict(r=0.8, nbar=0.25)),
]


class TestStoredTestedMatrix:
    @pytest.mark.parametrize("cid, params", CATALOG_POINTS, ids=[cid for cid, _ in CATALOG_POINTS])
    def test_spectrum_is_that_of_the_tested_matrix(self, cid, params):
        """Both routes decompose the matrix they store: one equal to its conjugate transpose entry
        for entry, whose eigvalsh is the stored spectrum bit for bit, for every kind."""
        dyn = catalog_build(cid, params).build()
        cm = steady_covariance(dyn)
        kinds = [Uncertainty(), Classicality()]
        if dyn.n > 1:
            kinds += [Separability(HALF), Steerability(HALF, 1), Steerability(HALF, 2)]
        for kind in kinds:
            for res in (environment_criterion(dyn, kind), state_criterion(cm, kind)):
                tested = res.tested_matrix
                assert (tested == tested.conj().T).all()
                assert res.spectrum.tobytes() == np.linalg.eigvalsh(tested).tobytes()


class TestThresholds:
    def test_squeezing_flip_of_separability(self):
        """State separability of the squeezed thermal target flips at ln(2 nbar + 1)."""
        nbar = 0.5
        target = lambda r: catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=nbar))

        def min_eig(r):
            return state_criterion(target(r), Separability(HALF)).spectrum[0]

        flip = locate_flip(min_eig, 1e-6, 4.0)
        assert flip == pytest.approx(np.log(2 * nbar + 1), abs=1e-8)

    def test_squeezing_flip_of_steerability(self):
        nbar = 0.5
        target = lambda r: catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=nbar))

        def min_eig(r):
            one = state_criterion(target(r), Steerability(HALF, 1))
            return one.spectrum[0]

        flip = locate_flip(min_eig, 1e-6, 4.0)
        assert flip == pytest.approx(np.arccosh(2 * nbar + 1), abs=1e-8)

    def test_state_classicality_threshold(self):
        """Bisection on the solved state reproduces the closed-form threshold."""
        params = dict(omega=0.5, kappa=1.0, nbar=0.2)

        def min_eig(zeta):
            dyn = catalog_build("TwoOscThermal", dict(zeta=zeta, **params)).build()
            return state_criterion(steady_covariance(dyn), Classicality()).spectrum[0]

        flip = locate_flip(min_eig, 1e-4, 8.0)
        closed = catalog_analytic(
            "TwoOscThermal", "classicality_threshold_state", dict(zeta=1.0, **params)
        )
        assert closed == pytest.approx(1.5, abs=1e-12)
        assert flip == pytest.approx(closed, abs=1e-7)

    def test_band_where_env_and_state_separability_disagree(self):
        """Thin band just below the environment flip where the state is already separable.

        The environment-level separability flip sits at 5/3 while the solved
        state flips at 1.6658851; in between, the environment test is violated
        while the state is separable.  The drift is symmetric but does not commute
        with the shifted diffusion, so the environment test is one-sided and its
        violation is inconclusive: it does not contradict the state.  Frozen
        regression for that band.
        """
        z = 1.666
        dyn = opo_thermal(z, epsilon=0.05, kappa=1.0, nbar=0.3)
        env = environment_criterion(dyn, Separability(HALF))
        state = state_criterion(steady_covariance(dyn), Separability(HALF))
        assert env.verdict is Verdict.VIOLATED
        assert env.conclusiveness is Conclusiveness.SUFFICIENT_ONLY
        assert env.conclusion == "inconclusive"
        assert state.verdict is Verdict.HOLDS

        def state_min(zeta):
            d = opo_thermal(zeta, epsilon=0.05, kappa=1.0, nbar=0.3)
            return state_criterion(steady_covariance(d), Separability(HALF)).spectrum[0]

        state_flip = locate_flip(state_min, 1.2, 3.0)
        assert state_flip == pytest.approx(1.6658851188934, abs=1e-9)
        env_flip = catalog_analytic(
            "OPOThermal",
            "separability_flip",
            dict(epsilon=0.05, kappa=1.0, zeta=1.666, nbar=0.3),
        )
        assert env_flip == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert state_flip < env_flip


class TestHierarchy:
    def test_classical_implies_separable_implies_unsteerable(self):
        """Spectral orderings between the criteria on random physical states."""
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            v = random_physical_cm(rng, n)
            flip = frozenset({int(rng.integers(0, n))})
            part = Partition(n, flip)
            clas = state_criterion(v, Classicality()).spectrum[0]
            sep = state_criterion(v, Separability(part)).spectrum[0]
            unc = state_criterion(v, Uncertainty()).spectrum[0]
            one = state_criterion(v, Steerability(part, 1))
            two = state_criterion(v, Steerability(part, 2))
            # V + i T J T - (V - I) = I + i T J T >= 0, so the PPT floor dominates
            assert sep >= clas - 1e-11
            # the steering matrix is the average of the uncertainty and PPT matrices
            assert one.spectrum[0] >= 0.5 * (unc + sep) - 1e-11
            assert two.spectrum[0] >= 0.5 * (unc + sep) - 1e-11

    def test_steerable_state_is_entangled(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        v = steady_covariance(dyn)
        one = state_criterion(v, Steerability(HALF, 1))
        two = state_criterion(v, Steerability(HALF, 2))
        sep = state_criterion(v, Separability(HALF))
        assert one.verdict is Verdict.VIOLATED
        assert two.verdict is Verdict.VIOLATED
        assert sep.verdict is Verdict.VIOLATED


class TestOneSpectrumPerVerdict:
    KINDS = [Uncertainty(), Classicality(), Separability(HALF), Steerability(HALF, 1), Steerability(HALF, 2)]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_one_eigensolve_per_criterion(self, monkeypatch, kind):
        dyn = opo_thermal(1.5)
        cm = steady_covariance(dyn)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        state_criterion(cm, kind)
        assert len(calls) == 1
        environment_criterion(dyn, kind)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "offset, verdict, zeros",
        [
            (2.0, Verdict.HOLDS, 0),
            (0.5, Verdict.MARGINAL, 1),
            (-0.5, Verdict.MARGINAL, 1),
            (-2.0, Verdict.VIOLATED, 0),
        ],
    )
    def test_verdict_agrees_with_classify_spectrum(self, offset, verdict, zeros):
        # one eigenvalue just inside or just outside the zero band (eig_zero_band * max |eig|)
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        m = q @ np.diag([1.0, 0.5, 0.25, offset * 1e-9]) @ q.T
        m = 0.5 * (m + m.T)
        res = state_criterion(m + np.eye(4), Classicality())  # tests m + I - I
        idx = classify_spectrum(np.linalg.eigvalsh(m))
        assert res.verdict is verdict
        assert idx == res.inertia
        assert res.inertia.zero == zeros


class TestCachedDriftSpectrum:
    def test_one_drift_eigensolve_per_model(self, drift_factorizations):
        """The stability check, every environment verdict and the steady state share one
        factorization of the drift."""
        dyn = opo_thermal(1.5)
        assert stability_check(dyn).is_stable
        for kind in TestOneSpectrumPerVerdict.KINDS:
            environment_criterion(dyn, kind)
        steady_covariance(dyn)
        assert drift_factorizations == ["schur"]

    @pytest.mark.parametrize(
        "refuse, what",
        [
            (lambda dyn: environment_criterion(dyn, Classicality()), "environment criterion"),
            (steady_covariance, "Lyapunov solve"),
        ],
    )
    def test_unstable_model_refused_after_caching(self, refuse, what):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()  # abscissa +0.1
        assert not stability_check(dyn).is_stable
        message = f"{what} needs an asymptotically stable drift matrix (spectral abscissa 1.000000e-01)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refuse(dyn)


class TestSharedXi:
    KINDS = TestOneSpectrumPerVerdict.KINDS

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_one_array_per_kind_and_size(self, kind):
        assert xi_matrix(kind, 2) is xi_matrix(kind, 2)
        # an equal kind built anew shares the same array
        twin = Partition(2, frozenset({1}))
        assert xi_matrix(Separability(twin), 2) is xi_matrix(Separability(HALF), 2)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_read_only(self, kind):
        xi = xi_matrix(kind, 2)
        before = xi.copy()
        with pytest.raises(ValueError, match="read-only"):
            xi[0, 0] = 7.0
        assert np.array_equal(xi_matrix(kind, 2), before)

    def test_cache_is_bounded_over_many_partitions(self):
        n = 9
        for mask in range(1, 2**n - 1):
            part = Partition(n, frozenset(k for k in range(n) if mask >> k & 1))
            xi_matrix(Separability(part), n)
        info = lindlyap.criteria._xi_matrix.cache_info()  # the cached builder behind the kind's read
        assert info.maxsize is not None and info.currsize <= info.maxsize


def count_hermitian_checks(monkeypatch):
    """Count the check_hermitian calls made from the criteria and lyapunov modules."""
    import lindlyap.criteria
    import lindlyap.lyapunov

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("what", "matrix"))
        return check_hermitian(*args, **kwargs)

    monkeypatch.setattr(lindlyap.criteria, "check_hermitian", counted)
    monkeypatch.setattr(lindlyap.lyapunov, "check_hermitian", counted)
    return calls


class TestHermitianChecksPerVerdict:
    KINDS = TestOneSpectrumPerVerdict.KINDS

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_state_criterion_checks_once(self, monkeypatch, kind):
        cm = steady_covariance(opo_thermal(1.5))
        calls = count_hermitian_checks(monkeypatch)
        state_criterion(cm, kind)
        assert calls == ["covariance matrix"]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    @pytest.mark.parametrize(
        "model, two_sided",
        [
            # the symmetric drift commutes with the shifted diffusion D + 2 Gamma of classicality only
            (lambda: opo_thermal(1.5), ("uncertainty", "classicality")),
            (lambda: catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build(),
             ("uncertainty",)),
        ],
        ids=["symmetric drift", "non-symmetric drift"],
    )
    def test_environment_criterion_keeps_its_checks(self, monkeypatch, kind, model, two_sided):
        dyn = model()
        calls = count_hermitian_checks(monkeypatch)
        res = environment_criterion(dyn, kind)
        assert (res.conclusiveness is Conclusiveness.IFF) == (kind.name in two_sided)
        # the diffusion alone, on either route: the shifted diffusion is Hermitian with it, as Xi is
        # built exactly Hermitian, and its terms can cancel below its own size, so it is not measured
        assert calls == ["diffusion"]

    def test_hand_built_diffusion_is_checked_per_call(self, monkeypatch):
        """A diffusion that is not exactly Hermitian is judged on every call, against that call's tol."""
        dyn = opo_thermal(1.5)
        d = dyn.diffusion.copy()
        off = 1e-3 * np.abs(d).max()  # 1e-3 relative: inside residual_tol 1e-2, outside the default
        d[0, 1] += off
        skewed = dataclasses.replace(dyn, diffusion=d)
        loose = Tolerances(residual_tol=1e-2)
        want = environment_criterion(dataclasses.replace(dyn, diffusion=check_hermitian(d, loose)), Classicality())
        calls = count_hermitian_checks(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="^diffusion is not Hermitian"):
                environment_criterion(skewed, Classicality())
        assert calls == ["diffusion", "diffusion"]
        calls.clear()
        for _ in range(2):
            res = environment_criterion(skewed, Classicality(), loose)
            assert np.array_equal(res.tested_matrix, want.tested_matrix)
        assert calls == ["diffusion"] * 2

    def test_drift_symmetry_is_judged_per_call(self):
        """Each call measures the drift's asymmetry and judges it against its own residual_tol, relative
        to the drift's size (0.1 here)."""
        dyn = catalog_build("CascadedOPO", dict(epsilon1=0.03, epsilon2=-0.02, kappa=0.1)).build()
        assert environment_criterion(dyn, Classicality()).conclusiveness is Conclusiveness.SUFFICIENT_ONLY
        gamma = dyn.drift_matrix
        asymmetry, scale = np.abs(gamma - gamma.T).max(), dyn.drift_schur.size
        assert scale == np.abs(gamma).max()
        tight = Tolerances(residual_tol=0.99 * asymmetry / scale)
        assert environment_criterion(dyn, Classicality(), tight).conclusiveness is Conclusiveness.SUFFICIENT_ONLY
        loose = Tolerances(residual_tol=asymmetry / scale)
        assert environment_criterion(dyn, Classicality(), loose).conclusiveness is Conclusiveness.IFF

    def test_nan_covariance_refused(self):
        # every comparison with NaN is False, so a `dev > bound` test would let this through
        cm = np.array([[1.0, np.nan], [np.nan, 1.0]])
        for kind in (Classicality(), Uncertainty()):
            with pytest.raises(ValueError, match="^covariance matrix is not finite"):
                state_criterion(cm, kind)


@st.composite
def covariances_and_kinds(draw):
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-300, 300))
    b = draw(hnp.arrays(float, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    v = scale * (b + b.T)
    # a one-ulp asymmetry, which check_hermitian accepts and symmetrizes away
    v[0, -1] = np.nextafter(v[0, -1], np.inf)
    kinds = [Uncertainty(), Classicality()]
    if n > 1:
        flipped = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        part = Partition(n, flipped)
        kinds += [Separability(part), Steerability(part, draw(st.sampled_from((1, 2))))]
    return v, n, kinds


@settings(max_examples=300, deadline=None)
@given(covariances_and_kinds())
def test_state_tested_matrix_is_exactly_hermitian(case):
    """V + Xi needs no Hermitian check of its own: it is Hermitian to the last bit."""
    v, n, kinds = case
    hv = check_hermitian(v)
    for kind in kinds:
        tested = hv + xi_matrix(kind, n)
        assert np.array_equal(tested, tested.conj().T)


@st.composite
def models_and_kinds(draw):
    """A random stable model on 1 to 3 modes with every criterion kind on its modes."""
    n = draw(st.integers(1, 3))
    dyn = random_stable_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    kinds = [Uncertainty(), Classicality()]
    if n > 1:
        part = Partition(n, draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        kinds += [Separability(part), Steerability(part, 1), Steerability(part, 2)]
    return dyn, kinds


@settings(max_examples=100, deadline=None)
@given(models_and_kinds())
def test_environment_tested_matrix_is_the_shifted_diffusion(case):
    """The tested matrix equals its conjugate transpose entry for entry, and D - Xi Gamma^T - Gamma Xi to
    rounding; solving with it as the source gives V + Xi, and for uncertainty it is twice the conjugate
    noise Gram matrix."""
    dyn, kinds = case
    gamma, d = dyn.drift_matrix, dyn.diffusion
    dim = len(gamma)
    cm = steady_covariance(dyn)
    for kind in kinds:
        xi = xi_matrix(kind, dyn.n)
        tested = environment_criterion(dyn, kind).tested_matrix
        assert (tested == tested.conj().T).all()
        scale = np.abs(d).max() + dim * np.abs(gamma).max() * np.abs(xi).max()
        assert np.abs(tested - (d - xi @ gamma.T - gamma @ xi)).max() <= 8 * dim * np.finfo(float).eps * scale
        shifted = solve(gamma, tested)
        assert np.abs(shifted - (cm + xi)).max() <= 1e-9 * (np.abs(cm).max() + 1.0)
        if isinstance(kind, Uncertainty):
            assert np.allclose(tested, 2.0 * dyn.noise_gram.conj(), rtol=0.0, atol=1e-12)


def momentum_flip_form(n, flip):
    """(J + T J T) / 2 and T J T, with T flipping the momenta of the modes in ``flip``."""
    t = np.ones(2 * n)
    for k in flip:
        t[n + k] = -1.0
    tmat = np.diag(t)
    j = symplectic_form(n)
    return 0.5 * (j + tmat @ j @ tmat), tmat @ j @ tmat


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_xi_matrix_bits_for_every_partition(n):
    """Separability and both steering test matrices, for every bipartition of n <= 6 modes,
    equal bit for bit the ones built from an in-test momentum flip."""
    for size in range(1, n):
        for flipped in itertools.combinations(range(n), size):
            part = Partition(n, frozenset(flipped))
            assert xi_matrix(Separability(part), n).tobytes() == (1j * momentum_flip_form(n, flipped)[1]).tobytes()
            for steered_part, steered in ((1, part.part_one), (2, part.part_two)):
                want = 1j * momentum_flip_form(n, frozenset(range(n)) - frozenset(steered))[0]
                assert xi_matrix(Steerability(part, steered_part), n).tobytes() == want.tobytes()


@st.composite
def locally_rotated_models(draw):
    """A stable model (a random one on 2 or 3 modes, or an OPOThermal, whose drift is symmetric),
    a bipartition of its modes, and one rotation angle per mode."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        dyn = random_stable_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    else:
        n = 2
        epsilon, kappa = draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.0, 1.0))
        zeta = abs(epsilon) + abs(kappa) + draw(st.floats(0.1, 2.0))
        dyn = opo_thermal(zeta, epsilon=epsilon, kappa=kappa, nbar=draw(st.floats(0.0, 1.0)))
    flipped = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    angles = draw(hnp.arrays(float, n, elements=st.floats(-np.pi, np.pi)))
    return dyn, Partition(n, flipped), angles


@settings(max_examples=150, deadline=None)
@given(locally_rotated_models())
def test_local_rotation_leaves_separability_and_steering_verdicts(case):
    """A local rotation W moves V + Xi and the shifted diffusion by an orthogonal congruence, since
    W J W^T = J and T W T is again a local rotation (Simon, PRL 84, 2726 (2000); Wiseman, Jones and
    Doherty, PRL 98, 140402 (2007)), so the spectra, and away from the band edge the verdicts, stay."""
    dyn, part, angles = case
    cm = steady_covariance(dyn)
    gamma, diffusion, cm_rotated = transform_triple(dyn.drift_matrix, dyn.diffusion, local_rotation(angles), cm)
    # separability and steering read the drift and the diffusion only
    rotated = dataclasses.replace(dyn, drift_matrix=gamma, diffusion=diffusion)
    for kind in (Separability(part), Steerability(part, 1), Steerability(part, 2)):
        pairs = [
            (state_criterion(cm, kind), state_criterion(cm_rotated, kind)),
            (environment_criterion(dyn, kind), environment_criterion(rotated, kind)),
        ]
        for before, after in pairs:
            scale = np.abs(before.spectrum).max()
            assert np.abs(after.spectrum - before.spectrum).max() <= 1e-9 * scale
            band = DEFAULT_TOL.eig_zero_band * max(1.0, scale)
            if abs(abs(before.spectrum[0]) - band) > 1e-3 * max(1.0, scale):
                assert (after.verdict, after.conclusiveness) == (before.verdict, before.conclusiveness)


@st.composite
def symmetric_drift_models(draw, structures=("scalar", "commuting", "generic")):
    """A stable model realized from a symmetric drift Gamma = -Q diag(g) Q^T and a PSD diffusion D,
    with every criterion kind on its modes.  Gamma is -g I, or D shares Gamma's eigenvectors (so
    Gamma commutes with classicality's D^ = D + 2 Gamma), or D is generic, raised by a multiple of the
    identity to keep the pair physical: D + i (Gamma J + J Gamma^T) >= 0."""
    n = draw(st.integers(1, 3))
    structure = draw(st.sampled_from(structures))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    if structure == "scalar":
        gamma = -rng.uniform(0.2, 2.0) * np.eye(2 * n)
    else:
        gamma = -(q * rng.uniform(0.2, 2.0, 2 * n)) @ q.T
        gamma = 0.5 * (gamma + gamma.T)
    j = symplectic_form(n)
    noise = 1j * (gamma @ j + j @ gamma.T)
    if structure == "commuting":
        d = (q * (np.linalg.norm(noise, 2) + rng.uniform(0.0, 3.0, 2 * n))) @ q.T
    else:
        a = rng.uniform(0.0, 3.0) * rng.normal(size=(2 * n, 2 * n))
        d = a @ a.T
        d += max(0.0, -np.linalg.eigvalsh(d + noise)[0]) * rng.uniform(1.0, 1.5) * np.eye(2 * n)
    dyn = realize_lindblad(gamma, 0.5 * (d + d.T)).spec.build()
    kinds = [Uncertainty(), Classicality()]
    if n > 1:
        part = Partition(n, draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        kinds += [Separability(part), Steerability(part, 1), Steerability(part, 2)]
    return dyn, kinds


@settings(max_examples=150, deadline=None)
@given(symmetric_drift_models())
def test_two_sided_environment_verdict_agrees_with_the_state(case):
    """Where the drift is symmetric and commutes with D^, V + Xi = D^ (-2 Gamma)^-1 is a product of
    commuting factors with -2 Gamma > 0, so an "iff" environment verdict is the state verdict
    wherever neither lies in its zero band."""
    dyn, kinds = case
    cm = steady_covariance(dyn)
    for kind in kinds:
        env, state = environment_criterion(dyn, kind), state_criterion(cm, kind)
        if env.conclusiveness is Conclusiveness.IFF and Verdict.MARGINAL not in (env.verdict, state.verdict):
            assert env.verdict is state.verdict, kind


@settings(max_examples=100, deadline=None)
@given(symmetric_drift_models(structures=("scalar",)))
def test_scalar_drift_keeps_every_environment_verdict_two_sided(case):
    """Gamma = -g I commutes with every D^, so every kind stays two-sided for any PSD diffusion."""
    dyn, kinds = case
    for kind in kinds:
        assert environment_criterion(dyn, kind).conclusiveness is Conclusiveness.IFF, kind
