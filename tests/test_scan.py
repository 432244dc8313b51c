import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindlyap import Classicality, Partition, Separability, catalog_analytic
from lindlyap.cli import main
from lindlyap.scan import ScanPoint, threshold

HALF = Partition(2, frozenset({1}))
README = dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0.0, 1.0),
    kappa=st.floats(0.1, 2.0),
    fraction=st.floats(0.05, 0.95),
)
def test_env_flips_match_closed_forms(eps, kappa, fraction):
    """OPOThermal is stable for zeta > epsilon + kappa; both environment flips lie inside that window
    when nbar is below kappa / (2 (epsilon + kappa)), so nbar is drawn as a fraction of that bound."""
    nbar = fraction * kappa / (2 * (eps + kappa))
    params = dict(epsilon=eps, kappa=kappa, nbar=nbar)
    edge = catalog_analytic("OPOThermal", "stability_edge", dict(params, zeta=1.0))
    for name, kind in (("classicality", Classicality()), ("separability", Separability(HALF))):
        form = catalog_analytic("OPOThermal", f"{name}_flip", dict(params, zeta=1.0))
        bracket = (1.01 * edge, 3 * (eps + kappa) / (2 * nbar))
        value, reason = threshold("OPOThermal", params, ("zeta",), "env", kind, bracket)
        assert reason is None
        assert value == pytest.approx(form, rel=1e-12, abs=0)


def test_cli_threshold_cell_is_the_api_value(capsys, tmp_path):
    path = tmp_path / "opo.json"
    path.write_text('{"catalog": "OPOThermal", "params": {"epsilon": 0.05, "kappa": 1.0, "zeta": 1.7, "nbar": 0.3}}')
    rc = main(["sweep", str(path), "--param", "nbar", "--range", "0.2:0.4:3", "--threshold", "separability:state:zeta",
               "--threshold", "classicality:env:zeta", "--threshold-range", "1.1:40"])
    assert rc == 0
    rows = [[float(cell) for cell in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3
    for nbar, _, state_sep, env_cls in rows:  # the default abscissa column second
        params = dict(README, nbar=nbar)
        assert state_sep == threshold("OPOThermal", params, ("zeta",), "state", Separability(HALF), (1.1, 40))[0]
        assert env_cls == threshold("OPOThermal", params, ("zeta",), "env", Classicality(), (1.1, 40))[0]


@pytest.mark.parametrize(
    "bracket, reason",
    [
        ((0.5, 40.0), "zeta = 0.5: unstable (spectral abscissa "),
        ((2.0, 40.0), "no sign change: smallest eigenvalue "),
        ((-1.0, 40.0), "zeta = -1: outside the family's domain: parameter 'zeta' of OPOThermal is a rate"),
    ],
    ids=["starts_unstable", "no_flip", "outside_domain"],
)
def test_nan_threshold_says_why(bracket, reason):
    value, why = threshold("OPOThermal", README, ("zeta",), "env", Separability(HALF), bracket)
    assert math.isnan(value)
    assert why.startswith(reason)


def test_point_outside_the_domain():
    point = ScanPoint("OPOThermal", dict(README, nbar=-1.0))
    assert point.dyn is point.report is None
    assert point.failure.startswith("outside the family's domain: parameter 'nbar'")
    assert math.isnan(point.value("abscissa"))


def test_unstable_point_has_only_an_abscissa():
    point = ScanPoint("OPOThermal", dict(README, zeta=0.5))
    assert point.value("abscissa") == pytest.approx(0.275)
    assert math.isnan(point.value("purity"))
    assert math.isnan(point.value("env", Classicality()))
