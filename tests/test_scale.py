"""Unit-free results: scaling every rate and frequency of a model by c leaves the stationary
covariance V and every verdict unchanged, because every tolerance is relative to the size of
what it compares."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindlyap import (
    Classicality,
    Partition,
    Separability,
    Steerability,
    Uncertainty,
    Verdict,
    catalog_build,
    environment_criterion,
    gibbs_condition,
    invariance_check,
    stability_check,
    state_criterion,
    steady_covariance,
)
from lindlyap.core import DEFAULT_TOL, zero_band

# per family: the parameters that are rates or frequencies (scaled by c), each drawn from its
# range at c = 1, and the dimensionless occupations (kept fixed)
FAMILIES = {
    "TwoOscThermal": (
        {"omega1": (-2.0, 2.0), "omega2": (-2.0, 2.0), "kappa": (-2.0, 2.0), "zeta1": (0.05, 2.0), "zeta2": (0.05, 2.0)},
        ("nbar1", "nbar2"),
    ),
    "TwoOscRWA": (
        {"varpi": (-2.0, 2.0), "Omega": (-2.0, 2.0), "zeta1": (0.05, 2.0), "zeta2": (0.05, 2.0)},
        ("nbar1", "nbar2"),
    ),
    "OPO": ({"epsilon": (-2.0, 2.0), "kappa": (0.05, 2.0)}, ()),
    "CascadedOPO": ({"epsilon1": (-2.0, 2.0), "epsilon2": (-2.0, 2.0), "kappa": (0.05, 2.0)}, ()),
    "OPOThermal": ({"epsilon": (-2.0, 2.0), "kappa": (-2.0, 2.0), "zeta": (0.05, 2.0)}, ("nbar",)),
}

README_OPO_THERMAL = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
UNEQUAL_TWO_OSC = dict(omega1=0.5, omega2=0.9, kappa=1.0, zeta1=0.7, zeta2=1.1, nbar1=0.3, nbar2=0.1)


def scaled(cid, params, c):
    """The catalog model with every rate and frequency of ``params`` times c."""
    rates = FAMILIES[cid][0]
    return catalog_build(cid, {k: c * v if k in rates else v for k, v in params.items()}).build()


def kinds(n):
    if n == 1:
        return [Uncertainty(), Classicality()]
    part = Partition(n, frozenset({n - 1}))
    return [Uncertainty(), Classicality(), Separability(part), Steerability(part, 1), Steerability(part, 2)]


def mode_reversal(n):
    """The frame change reversing the order of the modes (the swap for two modes)."""
    perm = np.concatenate([np.arange(n)[::-1], n + np.arange(n)[::-1]])
    return np.eye(2 * n)[perm]


def on_band_edge(result, size):
    """Whether a verdict's smallest eigenvalue lies within 1e-3 of the zero band's edge, where the
    rounding of c * rate decides it; size is that of the shift's terms, as in ``criteria``."""
    band = zero_band(result.spectrum, DEFAULT_TOL, size)
    return abs(abs(result.spectrum[0]) - band) <= 1e-3 * band


def results(dyn):
    """V, and the state and environment results of every criterion."""
    cm = steady_covariance(dyn)
    return cm, [state_criterion(cm, k) for k in kinds(dyn.n)], [environment_criterion(dyn, k) for k in kinds(dyn.n)]


def analysis(dyn):
    """Everything the property compares: V (None if unstable), every verdict, and whether one of
    them sits on its band edge."""
    stable = stability_check(dyn).is_stable
    out = {
        "stable": stable,
        "invariance": invariance_check(dyn.drift_matrix, dyn.diffusion, mode_reversal(dyn.n)),
        "gibbs": gibbs_condition(dyn),
        "cm": None,
        "edge": False,
    }
    if stable:
        cm, state, env = results(dyn)
        out["cm"] = cm
        out["state"] = [r.verdict for r in state]
        out["environment"] = [r.conclusion for r in env]
        out["edge"] = any(on_band_edge(r, 1.0) for r in state) or any(
            on_band_edge(r, np.abs(dyn.drift_matrix).max()) for r in env
        )
    return out


@st.composite
def scaled_points(draw):
    cid = draw(st.sampled_from(sorted(FAMILIES)))
    rates, occupations = FAMILIES[cid]
    params = {k: draw(st.floats(lo, hi)) for k, (lo, hi) in rates.items()}
    params.update({k: draw(st.floats(0.0, 2.0)) for k in occupations})
    return cid, params, 10.0 ** draw(st.floats(-12.0, 12.0))


class TestRateScaling:
    @settings(max_examples=300, deadline=None)
    @given(scaled_points())
    def test_covariance_and_every_verdict_are_unit_free(self, point):
        cid, params, c = point
        dyn = scaled(cid, params, 1.0)
        want = analysis(dyn)
        assume(not want.pop("edge"))
        got = analysis(scaled(cid, params, c))
        got.pop("edge")
        cm = want.pop("cm")
        gibbs = want.pop("gibbs")
        if cm is not None:
            # c * rate is rounded, and V amplifies that rounding by the conditioning of the solve,
            # about the drift's size over the distance |abscissa| of its spectrum from instability
            cond = np.abs(dyn.drift_matrix).max() / -stability_check(dyn).spectral_abscissa
            assert np.abs(got.pop("cm") - cm).max() <= 1e-12 * np.abs(cm).max() * cond
        if gibbs is None:
            assert got.pop("gibbs") is None
        else:
            assert got.pop("gibbs") == pytest.approx(gibbs, rel=1e-12)
        assert {k: v for k, v in got.items() if k != "cm"} == want

    @pytest.mark.parametrize("c", [1e-9, 1e-11])
    def test_readme_opo_thermal_at_a_small_scale(self, c):
        """At c = 1e-9 the environment verdicts once turned MARGINAL; at c = 1e-11 the model was
        refused as unstable (abscissa -3.25e-12 against an absolute margin of 1e-10)."""
        cm, state, env = results(scaled("OPOThermal", README_OPO_THERMAL, 1.0))
        cm_c, state_c, env_c = results(scaled("OPOThermal", README_OPO_THERMAL, c))
        assert [r.conclusion for r in env] == [r.conclusion for r in env_c] == ["holds"] * 5
        assert [r.verdict for r in state] == [r.verdict for r in state_c]
        assert np.abs(cm_c - cm).max() <= 1e-12 * np.abs(cm).max()

    @pytest.mark.parametrize("c", [1.0, 1e9])
    def test_vacuum_is_marginally_classical(self, c):
        """A zero-temperature loss drives the vacuum, whose classicality test matrices are exactly
        zero, computed as rounding noise of the size of their terms.  At c = 1e9 the environment
        route once refused its own test matrix as not Hermitian."""
        dyn = scaled("CascadedOPO", dict(epsilon1=0.0, epsilon2=0.0, kappa=1.0), c)
        assert state_criterion(steady_covariance(dyn), Classicality()).verdict is Verdict.MARGINAL
        assert environment_criterion(dyn, Classicality()).verdict is Verdict.MARGINAL

    def test_unequal_two_oscillators_at_a_small_scale(self):
        """Deviations of size 1e-9 once passed an absolute bound, so the mode swap counted as an
        invariance and the pair as isotropic, and the solved V then raised a RuntimeError."""
        dyn = scaled("TwoOscThermal", UNEQUAL_TWO_OSC, 1e-9)
        report = invariance_check(dyn.drift_matrix, dyn.diffusion, mode_reversal(2))
        assert not (report.gamma_invariant or report.diffusion_invariant or report.cm_invariant)
        assert gibbs_condition(dyn) is None
