import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindlyap import (
    CatalogId,
    Partition,
    Classicality,
    Level,
    Separability,
    catalog_analytic,
    catalog_build,
    engineer_gibbs_target,
    environment_criterion,
    solve,
    squeeze_transform,
    stability_check,
    steady_covariance,
    thermal_bath,
)
from lindlyap.catalog import PARAM_NAMES, catalog_id

from conftest import locate_flip


def steady_of(cid, **params):
    return steady_covariance(catalog_build(cid, params).build())


class TestThermalBath:
    def test_zero_occupation_gives_loss_only(self):
        vecs = thermal_bath(2, 0, 0.8, 0.0)
        assert len(vecs) == 1

    def test_gain_vector_appears_with_occupation(self):
        vecs = thermal_bath(2, 1, 0.8, 0.4)
        assert len(vecs) == 2

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            thermal_bath(2, 2, 0.5, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            thermal_bath(1, 0, -0.5, 0.0)


class TestParamHandling:
    def test_alias_fans_out(self):
        full = dict(omega1=0.5, omega2=0.5, kappa=1.0, zeta1=0.7, zeta2=0.7, nbar1=0.3, nbar2=0.3)
        short = dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
        a = catalog_build("TwoOscThermal", full).build()
        b = catalog_build("TwoOscThermal", short).build()
        assert np.allclose(a.drift_matrix, b.drift_matrix, atol=1e-15)
        assert np.allclose(a.diffusion, b.diffusion, atol=1e-15)

    def test_alias_clash_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            catalog_build(
                "TwoOscThermal",
                dict(omega=0.5, omega1=0.4, kappa=1.0, zeta=0.7, nbar=0.3),
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            catalog_build("OPO", dict(epsilon=0.3, kappa=1.0, detuning=0.1))

    def test_missing_param_rejected(self):
        with pytest.raises(ValueError, match="missing parameters"):
            catalog_build("OPO", dict(epsilon=0.3))

    def test_string_and_enum_ids_agree(self):
        a = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        b = catalog_build(CatalogId.OPO, dict(epsilon=0.3, kappa=1.0)).build()
        assert np.allclose(a.drift_matrix, b.drift_matrix)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            catalog_build("NoSuchModel", dict())

    def test_param_names_table(self):
        assert PARAM_NAMES[CatalogId.OPO] == ("epsilon", "kappa")
        assert "nbar2" in PARAM_NAMES[CatalogId.TWO_OSC_RWA]

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError, match="no closed form"):
            catalog_analytic("OPO", "magic", dict(epsilon=0.3, kappa=1.0))


class TestFrozenMatrices:
    def test_rwa_pair(self):
        dyn = catalog_build(
            "TwoOscRWA",
            dict(varpi=0.9, Omega=0.25, zeta1=0.3, zeta2=0.5, nbar1=0.6, nbar2=0.1),
        ).build()
        gamma = np.array(
            [
                [-0.15, 0.0, 0.9, 0.25],
                [0.0, -0.25, 0.25, 0.9],
                [-0.9, -0.25, -0.15, 0.0],
                [-0.25, -0.9, 0.0, -0.25],
            ]
        )
        assert np.allclose(dyn.drift_matrix, gamma, atol=1e-12)
        assert np.allclose(dyn.diffusion, np.diag([0.66, 0.6, 0.66, 0.6]), atol=1e-12)


class TestSteadyStateFormulas:
    def test_two_osc_thermal_symmetric(self):
        params = dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
        v = catalog_analytic("TwoOscThermal", "steady_cm", params)
        assert np.abs(v - steady_of("TwoOscThermal", **params)).max() < 1e-10

    def test_two_osc_thermal_needs_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            catalog_analytic(
                "TwoOscThermal",
                "steady_cm",
                dict(omega1=0.5, omega2=0.6, kappa=1.0, zeta=0.7, nbar=0.3),
            )

    def test_rwa_asymmetric_occupations(self):
        params = dict(varpi=1.1, Omega=0.45, zeta1=0.5, zeta2=0.3, nbar1=0.4, nbar2=1.3)
        v = catalog_analytic("TwoOscRWA", "steady_cm", params)
        assert np.abs(v - steady_of("TwoOscRWA", **params)).max() < 1e-10
        # the cross block couples q1-p2; occupation imbalance is what feeds it
        assert abs(v[0, 3]) > 1e-3
        assert v[0, 1] == 0.0 and v[0, 2] == 0.0

    def test_rwa_decoupled_second_bath_limit(self):
        params = dict(varpi=1.1, Omega=0.45, zeta1=0.5, zeta2=0.0, nbar1=0.4, nbar2=1.3)
        v = catalog_analytic("TwoOscRWA", "steady_cm", params)
        assert np.allclose(v, (2 * 0.4 + 1) * np.eye(4), atol=1e-12)

    def test_opo(self):
        v = catalog_analytic("OPO", "steady_cm", dict(epsilon=0.3, kappa=1.0))
        assert np.allclose(v, np.diag([1 / 0.7, 1 / 1.3]), atol=1e-12)
        assert np.abs(v - steady_of("OPO", epsilon=0.3, kappa=1.0)).max() < 1e-12

    @pytest.mark.parametrize("eps1,eps2", [(0.3, -0.2), (0.5, 0.4), (-0.6, 0.2)])
    def test_cascade(self, eps1, eps2):
        params = dict(epsilon1=eps1, epsilon2=eps2, kappa=1.0)
        v = catalog_analytic("CascadedOPO", "steady_cm", params)
        assert np.abs(v - steady_of("CascadedOPO", **params)).max() < 1e-10

    def test_cascade_pure_point(self):
        params = dict(epsilon1=0.3, epsilon2=-0.3, kappa=1.0)
        pure = catalog_analytic("CascadedOPO", "pure_cm", params)
        assert np.abs(pure - steady_of("CascadedOPO", **params)).max() < 1e-10
        with pytest.raises(ValueError, match="epsilon1 = -epsilon2"):
            catalog_analytic("CascadedOPO", "pure_cm", dict(epsilon1=0.3, epsilon2=0.1, kappa=1.0))

    def test_tmtss_target_is_built_steady_state(self):
        params = dict(r=0.7, nbar=0.5)
        target = catalog_analytic("TMTSS", "target_cm", params)
        assert np.allclose(target, 2.0 * squeeze_transform(0.7), atol=1e-12)
        assert np.abs(target - steady_of("TMTSS", **params)).max() < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(0.0, 2.0))
    def test_tmtss_steady_state_is_the_target(self, r, nbar):
        """The recipe's pair is (-I/2, target) in closed form, so its steady state is the target to
        rounding at any squeezing.  The catalog model carries that pair in coupling vectors: their
        Gram matrix rounds at about eps * |target| and drops eigenvalues inside the zero band, which
        moves the O(1) drift, so the model's steady state is held to 1e-7 (1.8e-8 is the largest
        deviation on a 1001 x 41 grid of r in [0, 40] and nbar in [0, 2])."""
        target = catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=nbar))
        scale = np.abs(target).max()
        pair = engineer_gibbs_target(squeeze_transform(r / 2.0), 2.0 * nbar + 1.0)
        assert np.abs(pair.steady_cm - target).max() <= 1e-12 * scale
        assert np.abs(steady_of("TMTSS", r=r, nbar=nbar) - target).max() <= 1e-7 * scale


class TestDriftSpectra:
    def test_two_osc_thermal(self):
        params = dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
        want = catalog_analytic("TwoOscThermal", "drift_spectrum", params)
        got = stability_check(catalog_build("TwoOscThermal", params).build()).spectrum
        # tiny jitter in the real parts makes lexicographic complex sort unstable
        order = np.lexsort((got.real, got.imag))
        want_order = np.lexsort((want.real, want.imag))
        assert np.abs(want[want_order] - got[order]).max() < 1e-9

    def test_opo_thermal(self):
        params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        want = catalog_analytic("OPOThermal", "drift_spectrum", params)
        got = np.sort(stability_check(catalog_build("OPOThermal", params).build()).spectrum.real)
        assert np.abs(want - got).max() < 1e-12

    def test_opo_thermal_stability_edge(self):
        params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        edge = catalog_analytic("OPOThermal", "stability_edge", params)
        assert edge == pytest.approx(0.85)
        at_edge = catalog_build("OPOThermal", dict(params, zeta=edge)).build()
        assert abs(stability_check(at_edge).spectral_abscissa) < 1e-12


class TestEnvironmentSpectra:
    def env_spectrum(self, cid, params, kind):
        dyn = catalog_build(cid, params).build()
        return environment_criterion(dyn, kind).spectrum

    def test_rwa_classicality(self):
        params = dict(varpi=0.9, Omega=0.25, zeta1=0.3, zeta2=0.5, nbar1=0.6, nbar2=0.1)
        want = catalog_analytic("TwoOscRWA", "classicality_spectrum_env", params)
        got = self.env_spectrum("TwoOscRWA", params, Classicality())
        assert np.allclose(want, [0.1, 0.1, 0.36, 0.36], atol=1e-12)
        assert np.abs(np.sort(got) - want).max() < 1e-10

    def test_opo_classicality(self):
        params = dict(epsilon=0.3, kappa=1.0)
        want = catalog_analytic("OPO", "classicality_spectrum_env", params)
        got = self.env_spectrum("OPO", params, Classicality())
        assert np.allclose(want, [-0.3, 0.3], atol=1e-15)
        assert np.abs(np.sort(got) - want).max() < 1e-12

    def test_opo_thermal_classicality(self):
        params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        want = catalog_analytic("OPOThermal", "classicality_spectrum_env", params)
        got = self.env_spectrum("OPOThermal", params, Classicality())
        assert np.allclose(want, [0.05, 0.15, 1.65, 1.75], atol=1e-12)
        assert np.abs(np.sort(got) - want).max() < 1e-10

    def test_opo_thermal_separability(self):
        params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        want = catalog_analytic("OPOThermal", "separability_spectrum_env", params)
        got = self.env_spectrum("OPOThermal", params, Separability(Partition(2, frozenset({1}))))
        assert np.allclose(want, [0.1, 1.7, 3.1, 4.7], atol=1e-12)
        assert np.abs(np.sort(got) - want).max() < 1e-10


class TestThresholdFormulas:
    def flip_of(self, cid, base_params, sweep_name, kind, lo, hi, level=Level.ENVIRONMENT):
        from lindlyap import state_criterion

        def min_eig(x):
            dyn = catalog_build(cid, dict(base_params, **{sweep_name: x})).build()
            if level is Level.ENVIRONMENT:
                res = environment_criterion(dyn, kind)
            else:
                res = state_criterion(steady_covariance(dyn), kind)
            return res.spectrum.min()

        return locate_flip(min_eig, lo, hi)

    def test_two_osc_env_thresholds_match_bisection(self):
        base = dict(omega=0.37, kappa=1.0, nbar1=0.8, nbar2=0.4)
        p_cls = catalog_analytic("TwoOscThermal", "classicality_threshold_env", dict(base, zeta=1.0))
        p_sep = catalog_analytic("TwoOscThermal", "separability_threshold_env", dict(base, zeta=1.0))
        half = Partition(2, frozenset({1}))
        got_cls = self.flip_of("TwoOscThermal", base, "zeta", Classicality(), 0.05, 6.0)
        got_sep = self.flip_of("TwoOscThermal", base, "zeta", Separability(half), 0.05, 6.0)
        assert got_cls == pytest.approx(p_cls, abs=1e-8)
        assert got_sep == pytest.approx(p_sep, abs=1e-8)
        assert p_sep < p_cls

    def test_opo_thermal_flips(self):
        base = dict(epsilon=0.05, kappa=0.8, nbar=0.3)
        cls = catalog_analytic("OPOThermal", "classicality_flip", dict(base, zeta=1.0))
        sep = catalog_analytic("OPOThermal", "separability_flip", dict(base, zeta=1.0))
        assert cls == pytest.approx(0.85 / 0.6, abs=1e-15)
        assert sep == pytest.approx(0.8 / 0.6, abs=1e-15)
        half = Partition(2, frozenset({1}))
        got_cls = self.flip_of("OPOThermal", base, "zeta", Classicality(), 0.9, 6.0)
        got_sep = self.flip_of("OPOThermal", base, "zeta", Separability(half), 0.9, 6.0)
        assert got_cls == pytest.approx(cls, abs=1e-8)
        assert got_sep == pytest.approx(sep, abs=1e-8)

    def test_divergence_guard(self):
        base = dict(omega=0.37, kappa=1.0, zeta=1.0, nbar1=0.0, nbar2=0.4)
        assert catalog_analytic("TwoOscThermal", "classicality_threshold_env", base) == math.inf
        flip = catalog_analytic(
            "OPOThermal", "separability_flip", dict(epsilon=0.05, kappa=0.8, zeta=1.0, nbar=0.0)
        )
        assert flip == math.inf

    def test_state_threshold_leaves_window(self):
        # above nbar = 1/4 at omega/kappa = 1/2 the state classicality flip has no real solution
        params = dict(omega=0.5, kappa=1.0, zeta=1.0, nbar=0.3)
        assert math.isnan(catalog_analytic("TwoOscThermal", "classicality_threshold_state", params))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "cid, key, params",
    [
        ("OPOThermal", "epsilon", dict(kappa=0.8, zeta=1.5, nbar=0.3)),
        ("TwoOscThermal", "nbar", dict(omega=0.5, kappa=1.0, zeta=0.7)),  # an alias
    ],
)
def test_non_finite_parameter_refused(cid, key, params, value):
    with pytest.raises(ValueError, match=f"^parameter '{key}' of {cid} must be finite"):
        catalog_build(cid, {**params, key: value})


@pytest.mark.parametrize("value", [None, "abc", [0.5]])
@pytest.mark.parametrize(
    "cid, key, params",
    [
        ("OPOThermal", "epsilon", dict(kappa=0.8, zeta=1.5, nbar=0.3)),
        ("TwoOscThermal", "nbar", dict(omega=0.5, kappa=1.0, zeta=0.7)),  # an alias
    ],
)
def test_non_number_parameter_refused(cid, key, params, value):
    message = f"parameter '{key}' of {cid} must be a number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        catalog_build(cid, {**params, key: value})


def test_parameter_read_as_float_reads_it():
    params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
    as_text = catalog_build("OPOThermal", {**params, "epsilon": "0.05"}).build()
    assert np.array_equal(as_text.drift_matrix, catalog_build("OPOThermal", params).build().drift_matrix)


@pytest.mark.parametrize(
    "cid, key, params",
    [
        ("TwoOscThermal", "zeta1", dict(omega=0.5, kappa=1.0, zeta2=0.7, nbar=0.3)),
        ("TwoOscRWA", "nbar2", dict(varpi=1.0, Omega=0.4, zeta=0.8, nbar1=0.2)),
        ("OPO", "kappa", dict(epsilon=0.1)),
        ("CascadedOPO", "kappa", dict(epsilon1=0.1, epsilon2=0.0)),
        ("OPOThermal", "zeta", dict(epsilon=0.05, kappa=1.0, nbar=0.3)),
        ("OPOThermal", "nbar", dict(epsilon=0.05, kappa=1.0, zeta=1.7)),
        ("TMTSS", "nbar", dict(r=0.8)),
        ("TwoOscThermal", "nbar", dict(omega=0.5, kappa=1.0, zeta=0.7)),  # an alias
    ],
)
def test_negative_rate_or_occupation_refused(cid, key, params):
    message = f"parameter '{key}' of {cid} is a rate or occupation and must be >= 0, got -0.7"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        catalog_build(cid, {**params, key: -0.7})
    catalog_build(cid, {**params, key: 0.0})  # the boundary is inside the domain


@pytest.mark.parametrize(
    "cid, params",
    [
        ("OPOThermal", dict(epsilon=-0.05, kappa=-1.0, zeta=1.7, nbar=0.3)),  # kappa is a coupling
        ("TwoOscThermal", dict(omega=-0.5, kappa=-1.0, zeta=0.7, nbar=0.3)),
        ("TwoOscRWA", dict(varpi=-1.0, Omega=-0.4, zeta=0.8, nbar=0.2)),
        ("CascadedOPO", dict(epsilon1=-0.1, epsilon2=-0.2, kappa=1.0)),
        ("TMTSS", dict(r=-0.8, nbar=0.3)),
    ],
)
def test_signed_parameters_stay_free(cid, params):
    catalog_build(cid, params)


@pytest.mark.parametrize(
    "r, reason",
    [
        (720.0, "overflow encountered in matmul"),
        (2000.0, "squeezing 1000.0 overflows double precision"),
        (-2000.0, "squeezing -1000.0 overflows double precision"),
    ],
)
def test_tmtss_squeezing_beyond_the_recipe_refused_naming_r(r, reason):
    message = f"TMTSS parameters r = {r!r}, nbar = 0.2 lie outside the range its engineering recipe realizes: {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        catalog_build("TMTSS", dict(r=r, nbar=0.2))
    assert type(info.value) is ValueError  # bad input, not an engineering request


@pytest.mark.parametrize("value", ["abc", None, ["OPO"], "opo"])
def test_unknown_catalog_id_lists_the_valid_ones(value):
    valid = "['TwoOscThermal', 'TwoOscRWA', 'OPO', 'CascadedOPO', 'OPOThermal', 'TMTSS']"
    with pytest.raises(ValueError, match=f"^{re.escape(f'catalog id must be one of {valid}, got {value!r}')}$"):
        catalog_build(value, dict(epsilon=0.1, kappa=1.0))
    assert catalog_id("OPO") is catalog_id(CatalogId.OPO) is CatalogId.OPO
