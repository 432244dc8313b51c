import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import locate_flip, random_physical_cm, random_stable_model
from lindlyap import (
    Classicality,
    Conclusiveness,
    Definiteness,
    Level,
    Partition,
    Separability,
    Steerability,
    Uncertainty,
    Verdict,
    catalog_analytic,
    catalog_build,
    environment_criterion,
    inertia,
    mean_fixed_point,
    psd_verdict,
    stability_check,
    state_criterion,
    steady_covariance,
    steerability_both_parts,
    symplectic_form,
    xi_matrix,
)
from lindlyap.core import check_hermitian

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

    def test_time_reversal_flips_part_two_momenta(self):
        t = Partition(3, frozenset({1})).time_reversal()
        assert np.array_equal(np.diag(t), [1, 1, 1, 1, -1, 1])

    @pytest.mark.parametrize("flip", [frozenset(), frozenset({0, 1}), frozenset({5})])
    def test_invalid_partitions(self, flip):
        with pytest.raises(ValueError):
            Partition(2, flip)

    def test_steered_part_validated(self):
        with pytest.raises(ValueError, match="steered_part"):
            Steerability(HALF, steered_part=3)


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
        one, two = steerability_both_parts(v, HALF)
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
        dyn = opo_thermal(1.5)
        res = environment_criterion(dyn, Separability(HALF))
        assert res.conclusiveness is Conclusiveness.IFF
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
        one, two = steerability_both_parts(dyn, HALF)
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
        one, two = steerability_both_parts(dyn, HALF)
        assert np.allclose(one.spectrum, two.spectrum, atol=1e-12)
        assert np.allclose(one.spectrum, [0.8, 2.3, 2.5, 4.0], atol=1e-12)


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
            one, _ = steerability_both_parts(target(r), HALF)
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
        state flips at 1.6658851; in between, the two-sided environment reading
        and the state-level verdict disagree.  Frozen regression for that band.
        """
        z = 1.666
        dyn = opo_thermal(z, epsilon=0.05, kappa=1.0, nbar=0.3)
        env = environment_criterion(dyn, Separability(HALF))
        state = state_criterion(steady_covariance(dyn), Separability(HALF))
        assert env.verdict is Verdict.VIOLATED
        assert env.conclusiveness is Conclusiveness.IFF
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
            one, two = steerability_both_parts(v, part)
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
        one, two = steerability_both_parts(v, HALF)
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
        "offset, definiteness, verdict, zeros",
        [
            (2.0, Definiteness.POSITIVE_DEFINITE, Verdict.HOLDS, 0),
            (0.5, Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL, Verdict.MARGINAL, 1),
            (-0.5, Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL, Verdict.MARGINAL, 1),
            (-2.0, Definiteness.INDEFINITE, Verdict.VIOLATED, 0),
        ],
    )
    def test_verdict_agrees_with_inertia_and_psd_verdict(self, offset, definiteness, verdict, zeros):
        # one eigenvalue just inside or just outside the zero band (eig_zero_band * max |eig|)
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        m = q @ np.diag([1.0, 0.5, 0.25, offset * 1e-9]) @ q.T
        m = 0.5 * (m + m.T)
        res = state_criterion(m + np.eye(4), Classicality())  # tests m + I - I
        assert psd_verdict(m) is definiteness
        assert res.verdict is verdict
        assert inertia(m) == res.inertia
        assert res.inertia.zero == zeros


class TestCachedDriftSpectrum:
    def test_one_drift_eigensolve_per_model(self, drift_factorizations):
        """The stability check, every environment verdict, the steady state and the mean share
        one factorization of the drift."""
        dyn = opo_thermal(1.5)
        assert stability_check(dyn).is_stable
        for kind in TestOneSpectrumPerVerdict.KINDS:
            environment_criterion(dyn, kind)
        steady_covariance(dyn)
        mean_fixed_point(dyn)
        assert drift_factorizations == ["schur"]

    @pytest.mark.parametrize(
        "refuse, what",
        [
            (lambda dyn: environment_criterion(dyn, Classicality()), "environment criterion"),
            (mean_fixed_point, "mean fixed point"),
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
        info = xi_matrix.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def count_hermitian_checks(monkeypatch):
    """Count check_hermitian calls made from the criteria and lyapunov modules."""
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
        "model, symmetric",
        [
            (lambda: opo_thermal(1.5), True),
            (lambda: catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build(), False),
        ],
        ids=["symmetric drift", "non-symmetric drift"],
    )
    def test_environment_criterion_keeps_its_checks(self, monkeypatch, kind, model, symmetric):
        dyn = model()
        calls = count_hermitian_checks(monkeypatch)
        res = environment_criterion(dyn, kind)
        assert (res.conclusiveness is Conclusiveness.IFF) == (symmetric or isinstance(kind, Uncertainty))
        # the shift, the generator of a symmetric shift, and the shifted source
        expected = 3 if symmetric and not isinstance(kind, Uncertainty) else 2
        assert len(calls) == expected and calls[-1] == "tested matrix"

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
