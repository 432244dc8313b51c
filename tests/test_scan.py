import hashlib
import io
import json
import math
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindlyap.catalog
import lindlyap.scan
from lindlyap import Classicality, Partition, Separability, Tolerances, catalog_analytic, catalog_build
from lindlyap.catalog import PARAM_NAMES, CatalogId, resolve_params
from lindlyap.cli import main
from lindlyap.scan import ScanPoint, scan, threshold

HALF = Partition(2, frozenset({1}))
README = dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)


def readme_document(tmp_path) -> str:
    path = tmp_path / "opo.json"
    path.write_text(json.dumps({"catalog": "OPOThermal", "params": README}))
    return str(path)


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


@pytest.mark.parametrize(
    "name, level, kind, bracket",
    [("zeta", "env", Separability(HALF), (1.1, 40.0)), ("zeta", "state", Classicality(), (1.06, 40.0)),
     ("nbar", "state", Separability(HALF), (0.01, 2.0))],
)
def test_search_is_scipys_brentq(name, level, kind, bracket):
    """threshold's search is brentq(f, a, b, xtol=5e-15, rtol=5e-15), bit for bit, though it runs brentq's
    compiled kernel without scipy.optimize."""
    from scipy.optimize import brentq

    def f(x):
        return ScanPoint("OPOThermal", {**README, name: x}).value(level, kind)

    value, reason = threshold("OPOThermal", README, (name,), level, kind, bracket)
    assert reason is None
    assert value.hex() == brentq(f, *bracket, xtol=5e-15, rtol=5e-15).hex()


def test_cli_threshold_cell_is_the_api_value(capsys, tmp_path):
    path = readme_document(tmp_path)
    rc = main(["sweep", path, "--param", "nbar", "--range", "0.2:0.4:3", "--threshold", "separability:state:zeta",
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


ZETA_AXIS = (np.linspace(1.1, 3.0, 2), ("zeta",))
SEPARABILITY_SEARCH = (("zeta",), "env", Separability(HALF))
TWO_OSC = resolve_params(CatalogId.TWO_OSC_THERMAL, dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: scan("OPOThermal", README, [ZETA_AXIS], thresholds=[SEPARABILITY_SEARCH]), "bracket"),
        (lambda: threshold("OPOThermal", README, ("zeta",), "env", Separability(HALF), (1.1,)), "bracket"),
        (lambda: threshold("OPOThermal", README, ("zeta",), "env", Separability(HALF), ("1.1", "40")),
         "bracket endpoint"),
        (lambda: threshold("OPOThermal", README, ("zeta",), "foo", Separability(HALF), (1.1, 40)), "level"),
        (lambda: threshold("OPOThermal", README, ("zeta",), "env", None, (1.1, 40)), "level 'env'"),
        (lambda: threshold("OPOThermal", README, "zeta", "env", Separability(HALF), (1.1, 40)), "names"),
        (lambda: threshold("OPOThermal", README, ("nbar1",), "env", Separability(HALF), (1.1, 40)), "names"),
        (lambda: scan("OPOThermal", README, [ZETA_AXIS], [("foo", None)]), "quantity"),
        (lambda: scan("OPOThermal", README, [ZETA_AXIS], [("state", None)]), "quantity 'state'"),
        (lambda: scan("OPOThermal", README, [ZETA_AXIS], [("purity", Classicality())]), "quantity 'purity'"),
        (lambda: scan("OPOThermal", README, [ZETA_AXIS, ZETA_AXIS]), "parameter 'zeta'"),
        (lambda: scan("TwoOscThermal", TWO_OSC, [(np.linspace(0.1, 0.3, 2), ("nbar1", "nbar2")),
                                                  (np.linspace(0.1, 0.3, 2), ("nbar1",))]), "parameter 'nbar1'"),
        (lambda: scan("OPOThermal", README, [(np.linspace(0.1, 0.3, 2), "nbar")]), "axis names"),
        (lambda: scan("Nope", README, [ZETA_AXIS]), "catalog id"),
        (lambda: ScanPoint("OPOThermal", README).value("foo"), "quantity"),
    ],
    ids=["scan-no-bracket", "bracket-short", "bracket-text", "level", "level-no-kind", "names-text",
         "names-unknown", "column-quantity", "column-no-kind", "column-extra-kind", "axes-overlap",
         "axes-overlap-alias", "axis-names-text", "scan-cid", "point-quantity"],
)
def test_bad_arguments_are_refused_before_the_walk(call, field):
    """Each argument is refused by a ValueError naming it, with no warning, not turned into a nan cell,
    a "no sign change" reason or another quantity's value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} "):
            call()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), band=st.floats(0.0, 1e-2), residual=st.floats(0.0, 1e-2))
def test_tolerance_never_changes_the_model(data, band, residual):
    """A point builds the model its parameters name whatever tolerances judge it: the drift and
    diffusion bytes of a default build, in every family."""
    cid = data.draw(st.sampled_from(list(CatalogId)), label="family")
    params = {name: data.draw(st.floats(0.0, 3.0), label=name) for name in PARAM_NAMES[cid]}
    point = ScanPoint(cid, params, Tolerances(eig_zero_band=band, residual_tol=residual))
    want = catalog_build(cid, params).build()
    assert point.dyn.drift_matrix.tobytes() == want.drift_matrix.tobytes()
    assert point.dyn.diffusion.tobytes() == want.diffusion.tobytes()


def test_point_outside_the_domain():
    point = ScanPoint("OPOThermal", dict(README, nbar=-1.0))
    assert point.dyn is point.report is None
    assert point.failure.startswith("outside the family's domain: parameter 'nbar'")
    with pytest.raises(ValueError, match=r"^outside the family's domain: parameter 'nbar'"):
        point.value("abscissa")


def test_unstable_point_has_only_an_abscissa():
    point = ScanPoint("OPOThermal", dict(README, zeta=0.5))
    assert point.value("abscissa") == pytest.approx(0.275)
    for quantity, kind in (("purity", None), ("env", Classicality())):
        with pytest.raises(ValueError, match=r"^unstable \(spectral abscissa 0\.275"):
            point.value(quantity, kind)


@pytest.fixture
def builds(monkeypatch):
    """The number of catalog builds so far, every route included."""
    count = [0]
    build = lindlyap.catalog.catalog_build

    def counted(*args, **kwargs):
        count[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(lindlyap.catalog, "catalog_build", counted)
    return lambda: count[0]


def run_cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_readme_sweep_searches_once(tmp_path, builds):
    """The threshold over the swept zeta depends on nbar, epsilon and kappa alone, so its one search
    (3 builds) fills all 40 cells: 1 document + 40 points + 3 = 44 builds, where a search per row
    made 161.  The printed bytes are those of a search per row."""
    path = readme_document(tmp_path)
    out = run_cli("sweep", path, "--param", "zeta", "--range", "1.1:3:40", "--quantity",
                  "env_separability_min_eig", "--threshold", "separability:env:zeta", "--threshold-range", "1.1:40")
    assert builds() == 44
    assert hashlib.md5(out.encode()).hexdigest() == "d9fdee41991f6d6febdc1af688795a3b"


def test_scan_is_the_cli_grid(tmp_path, builds, monkeypatch):
    """A zeta x nbar grid, unstable points included: the table is the CSV's cells bit for bit, and the
    threshold over zeta runs once per nbar value."""
    searches = []
    search = lindlyap.scan.threshold
    monkeypatch.setattr(lindlyap.scan, "threshold", lambda *args: searches.append(args[1]) or search(*args))
    path = readme_document(tmp_path)
    out = run_cli("sweep", path, "--param", "zeta", "--range", "0.5:3:6", "--param2", "nbar", "--range2",
                  "0.1:0.4:3", "--quantity", "purity", "--quantity", "env_classicality_min_eig",
                  "--threshold", "separability:env:zeta", "--threshold-range", "1.1:40")
    cli_builds = builds()
    axes = [(np.linspace(0.5, 3, 6), ("zeta",)), (np.linspace(0.1, 0.4, 3), ("nbar",))]
    table, reasons = scan("OPOThermal", README, axes, [("purity", None), ("env", Classicality())],
                          [(("zeta",), "env", Separability(HALF))], (1.1, 40))
    csv = np.array([[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]])
    assert table.shape == csv.shape == (18, 5)
    assert table.tobytes() == csv.tobytes()
    assert builds() - cli_builds == cli_builds - 1  # the CLI adds one build, of its document
    assert [p["nbar"] for p in searches] == [0.1, 0.25, 0.4] * 2  # the CLI's three, then the API's
    assert [math.isnan(x) for x in table.flat] == [why is not None for row in reasons for why in row]


def test_nan_cells_say_why():
    """The purity sweep of the README document: unstable rows and a bracket that starts at an
    unstable point print the same bare nan in the CSV, and the reasons tell them apart."""
    table, reasons = scan("OPOThermal", README, [(np.linspace(0.5, 2, 4), ("zeta",))], [("purity", None)],
                          [(("zeta",), "env", Separability(HALF))], (0.5, 40))
    assert [row[1] is None for row in reasons] == [False, False, True, True]
    assert all(row[1].startswith("unstable (spectral abscissa") for row in reasons[:2])
    assert all(row[2].startswith("zeta = 0.5: unstable") for row in reasons)
    assert all(row[0] is None for row in reasons)
    assert np.isnan(table[:2, 1]).all() and np.isfinite(table[2:, 1]).all() and np.isnan(table[:, 2]).all()
