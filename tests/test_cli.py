import copy
import errno
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindlyap
from lindlyap import catalog_analytic, squeeze_transform
from lindlyap.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def catalog_doc(tmp_path, cid, **params):
    return write_doc(tmp_path, f"{cid}.json", {"catalog": cid, "params": params})


OPO_DOC = {
    "n": 1,
    "hessian": [[0.0, 0.15], [0.15, 0.0]],
    "lindblad": [
        {
            "lambda_re": [0.0, -0.7071067811865476],
            "lambda_im": [0.7071067811865476, 0.0],
        }
    ],
}


class TestSteady:
    def test_catalog_json(self, capsys, tmp_path):
        params = dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
        model = catalog_doc(tmp_path, "TwoOscThermal", **params)
        rc, out, _ = run(capsys, "steady", model, "--json")
        assert rc == 0
        data = json.loads(out)
        assert set(data) == {"n", "spectral_abscissa", "drift_matrix", "diffusion", "steady_cm", "residual"}
        assert data["n"] == 2
        want = catalog_analytic("TwoOscThermal", "steady_cm", params)
        assert np.abs(np.array(data["steady_cm"]) - want).max() < 1e-8
        assert data["residual"] < 1e-10

    def test_explicit_document(self, capsys, tmp_path):
        model = write_doc(tmp_path, "opo.json", OPO_DOC)
        rc, out, _ = run(capsys, "steady", model, "--json")
        assert rc == 0
        cm = np.array(json.loads(out)["steady_cm"])
        assert np.abs(cm - np.diag([1 / 0.7, 1 / 1.3])).max() < 1e-12

    def test_text_has_full_precision(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out_json, _ = run(capsys, "steady", model, "--json")
        assert rc == 0
        v00 = json.loads(out_json)["steady_cm"][0][0]
        rc, out, _ = run(capsys, "steady", model)
        assert rc == 0
        # the text route must carry the same value at full double precision
        assert f"{v00:.17g}" in out
        assert abs(v00 - 1 / 0.7) < 1e-14

    def test_unstable_refused(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.2, kappa=1.0)
        rc, _, err = run(capsys, "steady", model)
        assert rc == 2
        assert "unstable" in err

    def test_output_file(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        outfile = tmp_path / "result.json"
        rc, out, _ = run(capsys, "steady", model, "--json", "--output", str(outfile))
        assert rc == 0
        assert out == ""
        data = json.loads(outfile.read_text())
        assert data["n"] == 1

    def test_tol_flag(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "steady", model, "--json", "--tol", "1e-6")
        assert rc == 0


class TestStability:
    def test_stable_json(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "CascadedOPO", epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        rc, out, _ = run(capsys, "stability", model, "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["is_stable"] is True
        assert data["spectral_abscissa"] == pytest.approx(-0.35)
        spec = data["spectrum"]
        re = spec["re"] if isinstance(spec, dict) else spec  # complex spectra emit {re, im}
        assert sorted(re) == pytest.approx([-0.65, -0.6, -0.4, -0.35])

    def test_marginal_exit_code_and_note(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.0, kappa=1.0)
        rc, out, _ = run(capsys, "stability", model)
        assert rc == 2
        assert "asymptotically stable: no" in out
        assert "marginally stable" in out


class TestCriteria:
    def cascade(self, tmp_path):
        return catalog_doc(tmp_path, "CascadedOPO", epsilon1=0.3, epsilon2=-0.2, kappa=1.0)

    def test_separability_state_vs_env(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "criteria", self.cascade(tmp_path), "--kind", "separability", "--json"
        )
        assert rc == 0
        results = {r["level"]: r for r in json.loads(out)}
        assert set(results) == {"state", "environment"}
        assert results["state"]["verdict"] == "violated"
        assert results["state"]["conclusion"] == "violated"
        # the cascade drift is not symmetric, so a violated environment test is inconclusive
        assert results["environment"]["verdict"] == "violated"
        assert results["environment"]["conclusiveness"] == "sufficient_only"
        assert results["environment"]["conclusion"] == "inconclusive"
        for r in results.values():
            assert r["min_eig"] == r["spectrum"][0]
            assert set(r["inertia"]) == {"positive", "zero", "negative"}

    def test_env_separability_spectrum(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "criteria",
            self.cascade(tmp_path),
            "--kind",
            "separability",
            "--level",
            "env",
            "--json",
        )
        assert rc == 0
        (res,) = json.loads(out)
        want = np.sort([1 - np.sqrt(5), 0.0, 2.0, 1 + np.sqrt(5)])
        assert np.abs(np.array(res["spectrum"]) - want).max() < 1e-10

    def test_kind_all_result_count(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        rc, out, _ = run(capsys, "criteria", model, "--json")
        assert rc == 0
        results = json.loads(out)
        # uncertainty, classicality, separability, steerability x2, each at both levels
        assert len(results) == 10
        kinds = {(r["kind"], r["level"]) for r in results}
        assert ("steerability", "environment") in kinds

    def test_partition_sides_agree_on_separability(self, capsys, tmp_path):
        spectra = []
        for part in ("1", "2"):
            rc, out, _ = run(
                capsys,
                "criteria",
                self.cascade(tmp_path),
                "--kind",
                "separability",
                "--level",
                "state",
                "--partition",
                part,
                "--json",
            )
            assert rc == 0
            spectra.append(np.array(json.loads(out)[0]["spectrum"]))
        assert np.abs(spectra[0] - spectra[1]).max() < 1e-10

    def test_partition_validation(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "criteria", self.cascade(tmp_path), "--kind", "separability", "--partition", "3"
        )
        assert rc == 1 and "1..2" in err
        rc, _, err = run(
            capsys, "criteria", self.cascade(tmp_path), "--kind", "separability", "--partition", "1,2"
        )
        assert rc == 1

    def test_single_mode_partition_refused(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, _, err = run(capsys, "criteria", model, "--kind", "separability")
        assert rc == 1 and "two modes" in err

    def test_text_mode_columns(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "criteria", model, "--kind", "classicality")
        assert rc == 0
        assert "conclusion=" in out and "verdict=" in out and "min_eig=" in out

    def test_unstable_refused(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.2, kappa=1.0)
        rc, _, err = run(capsys, "criteria", model)
        assert rc == 2


class TestSweep:
    def model(self, tmp_path):
        return catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)

    def test_deterministic_csv_with_threshold(self, capsys, tmp_path):
        argv = [
            "sweep",
            self.model(tmp_path),
            "--param",
            "zeta",
            "--range",
            "1.0:3.0:5",
            "--quantity",
            "abscissa",
            "--quantity",
            "env_classicality_min_eig",
            "--threshold",
            "classicality:env:zeta",
            "--threshold-range",
            "0.9:6",
        ]
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "zeta,abscissa,env_classicality_min_eig,thr_classicality_env_zeta"
        assert len(lines) == 6
        flip = 0.85 / 0.6  # classicality flips where the bath occupation beats the drive
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(flip, abs=1e-9)

    def test_two_parameter_grid(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "sweep",
            self.model(tmp_path),
            "--param",
            "zeta",
            "--range",
            "1.0:2.0:2",
            "--param2",
            "nbar",
            "--range2",
            "0.1:0.3:2",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "zeta,nbar,abscissa"
        assert len(lines) == 5

    def test_symplectic_cells_are_nan_where_rounding_hides_them(self, capsys, tmp_path):
        """TMTSS steady states: purity and the smallest symplectic eigenvalue are exact up to
        r = 5 and nan from r = 10, where their rounding error exceeds the zero band."""
        model = catalog_doc(tmp_path, "TMTSS", r=1, nbar=0.2)
        rc, out, err = run(capsys, "sweep", model, "--param", "r", "--range", "0:40:9",
                           "--quantity", "purity", "--quantity", "min_symplectic_eig")
        assert (rc, err) == (0, "")
        lines = out.strip().splitlines()
        assert lines[0] == "r,purity,min_symplectic_eig"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], np.linspace(0, 40, 9))
        assert np.abs(rows[:2, 1:] - [1 / 1.96, 1.4]).max() <= 1e-10
        assert np.isnan(rows[2:, 1:]).all()

    @pytest.mark.parametrize("quantity", ["entropy", "env_steerability_min_eig"])
    def test_unknown_quantity(self, capsys, tmp_path, quantity):
        """The refusal lists every column name, the steering columns included."""
        rc, _, err = run(
            capsys,
            "sweep",
            self.model(tmp_path),
            "--param",
            "zeta",
            "--range",
            "1:2:2",
            "--quantity",
            quantity,
        )
        assert rc == 1 and "unknown quantity" in err
        assert "env_steerability_part1_min_eig" in err

    def test_json_is_not_an_option(self, capsys, tmp_path):
        """sweep prints CSV only, so --json is refused as an unknown flag rather than ignored."""
        rc, out, err = run(capsys, "sweep", self.model(tmp_path), "--param", "zeta", "--range", "1:2:2", "--json")
        assert (rc, out) == (1, "")
        assert any("--json" in line for line in err.splitlines())

    def test_threshold_kind_validated(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "sweep",
            self.model(tmp_path),
            "--param",
            "zeta",
            "--range",
            "1:2:2",
            "--threshold",
            "uncertainty:env:zeta",
        )
        assert rc == 1

    def test_needs_catalog_model(self, capsys, tmp_path):
        model = write_doc(tmp_path, "opo.json", OPO_DOC)
        rc, _, err = run(capsys, "sweep", model, "--param", "epsilon", "--range", "0:0.5:3")
        assert rc == 1 and "catalog" in err

    # sweeps of the README OPOThermal document and their exact stdout
    PURITY_SWEEP = ["--range", "0.5:2:4", "--quantity", "purity", "--threshold-range", "0.5:40"]
    PURITY_CSV = (
        "zeta,purity,thr_separability_env_zeta\n"
        "0.5,nan,nan\n"
        "1,nan,nan\n"
        "1.5,0.21588290358408602,nan\n"
        "2,0.29256166786184701,nan\n"
    )
    README_SWEEP = ["--range", "1.1:3:40", "--quantity", "env_separability_min_eig", "--threshold-range", "1.1:40"]
    README_MD5 = "d9fdee41991f6d6febdc1af688795a3b"

    @pytest.mark.parametrize("options", [PURITY_SWEEP, README_SWEEP], ids=["purity", "readme"])
    def test_pinned_sweeps_are_byte_identical(self, capsys, tmp_path, options):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        rc, out, err = run(capsys, "sweep", model, "--param", "zeta", *options, "--threshold", "separability:env:zeta")
        assert (rc, err) == (0, "")
        if options is self.PURITY_SWEEP:
            assert out == self.PURITY_CSV
        else:
            assert hashlib.md5(out.encode()).hexdigest() == self.README_MD5
            assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {"1.6666666666666656"}


class TestEngineer:
    def test_tmtss(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "engineer",
            "--catalog",
            "TMTSS",
            "--params",
            "r=0.8,nbar=0.5",
            "--json",
        )
        assert rc == 0
        data = json.loads(out)
        assert "method" not in data
        assert np.abs(np.array(data["target"]) - 2.0 * squeeze_transform(0.8)).max() < 1e-12
        assert np.array_equal(np.array(data["drift_matrix"]), -0.5 * np.eye(4))
        assert data["verification"]["steady_cm_max_dev"] == 0.0
        assert np.allclose(data["symplectic_spectrum"], [2.0, 2.0], atol=1e-9)

    @pytest.mark.parametrize("r", [0.8, 15, 17, 30, 60, 700])
    def test_tmtss_pair_is_exact(self, capsys, r):
        """The pair is (-I/2, target) itself, so even strong squeezing meets the target exactly."""
        rc, out, err = run(capsys, "engineer", "--catalog", "TMTSS", "--params", f"r={r},nbar=0.2", "--json")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        target = np.array(data["target"])
        assert np.array_equal(target, catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=0.2)))
        assert np.array_equal(np.array(data["drift_matrix"]), -0.5 * np.eye(4))
        assert np.array_equal(np.array(data["diffusion"]), target)
        assert data["verification"]["steady_cm_max_dev"] == 0.0
        # rounding resolves the spectrum within the zero band at r = 0.8, and not from r = 8 on
        assert data["symplectic_spectrum"] == (pytest.approx([1.4, 1.4]) if r < 8 else None)

    def test_mixed_spectrum(self, capsys, tmp_path):
        """Unequal symplectic eigenvalues need no option: the isotropic drift reaches them."""
        cm = np.diag([3.0, 1.0, 3.0, 1.0])
        target = write_doc(tmp_path, "target.json", {"cm": cm.tolist()})
        rc, out, err = run(capsys, "engineer", "--target", target, "--json")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert np.array_equal(np.array(data["diffusion"]), cm)
        assert data["verification"]["steady_cm_max_dev"] == 0.0
        assert data["symplectic_spectrum"] == pytest.approx([3.0, 1.0])

    def test_method_option_is_gone(self, capsys, tmp_path):
        target = write_doc(tmp_path, "t.json", {"cm": (2.0 * np.eye(2)).tolist()})
        rc, _, err = run(capsys, "engineer", "--target", target, "--method", "gibbs")
        assert rc == 1 and "unrecognized arguments: --method gibbs" in err

    def test_unphysical_target(self, capsys, tmp_path):
        target = write_doc(tmp_path, "bad.json", {"cm": (0.5 * np.eye(2)).tolist()})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 3 and "not physical" in err

    def test_text_report(self, capsys, tmp_path):
        target = write_doc(tmp_path, "t.json", {"cm": (2.0 * np.eye(2)).tolist()})
        rc, out, _ = run(capsys, "engineer", "--target", target)
        assert rc == 0
        assert out.startswith("engineered drift matrix:\n")
        assert "steady-state deviation from target: 0\n" in out

    def test_input_validation(self, capsys, tmp_path):
        rc, _, err = run(capsys, "engineer")
        assert rc == 1 and "--target" in err
        rc, _, err = run(capsys, "engineer", "--catalog", "TMTSS", "--params", "r=0.8")
        assert rc == 1 and "missing parameters" in err
        target = write_doc(tmp_path, "asym.json", {"cm": [[1.0, 0.5], [0.0, 1.0]]})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 1 and "symmetric" in err


def test_engineer_computes_the_symplectic_spectrum_once(capsys, monkeypatch):
    """engineer --json prints the spectrum that the physicality gate computed."""
    calls = []
    spectrum = lindlyap.williamson.physical_spectrum
    monkeypatch.setattr(lindlyap.williamson, "physical_spectrum", lambda *a: calls.append(1) or spectrum(*a))
    rc, out, err = run(capsys, "engineer", "--catalog", "TMTSS", "--params", "r=0.5,nbar=0.2", "--json")
    assert (rc, err) == (0, "")
    assert len(calls) == 1
    data = json.loads(out)
    assert np.array_equal(data["symplectic_spectrum"], spectrum(np.array(data["target"])))


class TestEngineerTolerance:
    """--tol sets the band of engineer's physicality test."""

    def test_target_inside_the_band(self, capsys, tmp_path):
        s = squeeze_transform(0.3)
        target = write_doc(tmp_path, "t.json", {"cm": ((1 - 1e-7) * (s @ s.T)).tolist()})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 3 and err == "error: target is not physical: smallest symplectic eigenvalue 0.99999989999999961 < 1\n"
        rc, out, err = run(capsys, "engineer", "--target", target, "--tol", "1e-6")
        assert (rc, err) == (0, "") and "steady-state deviation from target: " in out


class TestEngineerSolvesOnce:
    ARGS = ("engineer", "--catalog", "TMTSS", "--params", "r=0.8,nbar=0.25")

    def test_reported_deviation_is_that_of_a_fresh_solve(self, capsys, monkeypatch):
        """The deviation is read off the engineering step's own solve, and it is bit for bit
        the deviation of a fresh solve of the printed pair."""
        rc, out, _ = run(capsys, *self.ARGS, "--json")
        assert rc == 0
        data = json.loads(out)
        cm = lindlyap.solve(np.array(data["drift_matrix"]), np.array(data["diffusion"]))
        dev = float(np.abs(cm - np.array(data["target"])).max())
        assert data["verification"]["steady_cm_max_dev"] == dev

        solves = []
        solve = lindlyap.lyapunov.solve

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lindlyap.lyapunov, "solve", counted)
        rc, text, _ = run(capsys, *self.ARGS)
        assert rc == 0 and len(solves) == 1
        assert f"steady-state deviation from target: {lindlyap.cli._fmt(dev)}" in text.splitlines()

    def test_no_normal_form(self, capsys, monkeypatch):
        """The target's Williamson form is neither computed nor inverted."""

        def refuse(*args, **kwargs):
            raise AssertionError("engineer must not decompose or invert the target")

        monkeypatch.setattr(lindlyap.williamson, "williamson_decompose", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        rc, _, err = run(capsys, *self.ARGS, "--json")
        assert (rc, err) == (0, "")


class TestCatalogDomain:
    def test_negative_rate_exits_one(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.1, kappa=-1.0)
        rc, out, err = run(capsys, "steady", model)
        assert rc == 1 and out == ""
        assert err == "error: parameter 'kappa' of OPO is a rate or occupation and must be >= 0, got -1.0\n"

    def test_engineer_names_the_occupation(self, capsys):
        rc, _, err = run(capsys, "engineer", "--catalog", "TMTSS", "--params", "r=0.8,nbar=-0.7")
        assert rc == 1 and "parameter 'nbar' of TMTSS is a rate or occupation" in err

    @pytest.mark.parametrize("r", [30, 60, 700])
    def test_strongly_squeezed_tmtss_steady_state(self, capsys, tmp_path, r):
        """The Gibbs pair is closed form, so strong squeezing neither misses the target nor
        inverts a near-singular transform."""
        rc, out, err = run(capsys, "steady", catalog_doc(tmp_path, "TMTSS", r=r, nbar=0.2), "--json")
        assert (rc, err) == (0, "")
        want = catalog_analytic("TMTSS", "target_cm", dict(r=r, nbar=0.2))
        got = np.array(json.loads(out)["steady_cm"])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sweep_cells_outside_the_domain_are_nan(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        rc, out, _ = run(capsys, "sweep", model, "--param", "nbar", "--range=-0.2:0.2:3", "--quantity", "purity")
        assert rc == 0
        cells = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert cells[0] == "nan" and all(np.isfinite(float(c)) for c in cells[1:])


NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(float).tolist()
# signed zeros, NaNs, infinities, subnormals and ordinary values, as a whole column or cell by cell
SPECIAL = [0.0, -0.0, math.nan, *NAN_PAYLOADS, math.inf, -math.inf, 5e-324, -2.225073858507201e-308,
           0.1, -3.0, 1e300]


@st.composite
def csv_tables(draw):
    """Tables of 1-40 rows by 1-30 columns; a column is constant or varies, and a varying column drawn
    from a few values often has equal end rows."""
    n_rows = draw(st.integers(1, 40))
    column = st.one_of(
        st.sampled_from(SPECIAL).map(lambda x: [x] * n_rows),
        st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=n_rows, max_size=n_rows),
        st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n_rows, max_size=n_rows),
    )
    return np.array(draw(st.lists(column, min_size=1, max_size=30)), dtype=float).T.copy()


class TestEvolve:
    def test_terminal_state_matches_solver(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "evolve", model, "--t-end", "30", "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["t_end"] == pytest.approx(30.0)
        assert np.abs(np.array(data["final_cm"]) - np.diag([1 / 0.7, 1 / 1.3])).max() < 1e-6
        assert np.abs(np.array(data["final_mean"])).max() < 1e-12

    def test_csv_layout(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "evolve", model, "--t-end", "1", "--dt", "0.01", "--stride", "50")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x0,x1,V_0_0,V_0_1,V_1_0,V_1_1"
        assert len(lines) == 4  # header, t=0, t=0.5, t=1
        assert float(lines[-1].split(",")[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "doc",
        [
            {"catalog": "OPOThermal", "params": {"epsilon": 0.05, "kappa": 1.0, "zeta": 1.7, "nbar": 0.3}},
            {**OPO_DOC, "xi": [0.3, -0.7]},  # driven: the means vary from row to row
        ],
        ids=["OPOThermal", "driven"],
    )
    def test_csv_rows_are_the_per_cell_format(self, capsys, tmp_path, monkeypatch, doc):
        """Each CSV row is the comma join of _fmt over t, the mean and the row-major covariance."""
        evolve, recorded = lindlyap.evolution.evolve, []
        # a signed zero, a subnormal, the largest float and an integral value keep their text; in a
        # column of zeros the signed zero makes the column vary
        special = ["-0", "4.9406564584124654e-324", "-1.7976931348623157e+308", "3"]

        def recording(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            traj.means[1] = [float(x) for x in special[: traj.means.shape[1]]]
            recorded.append(traj)
            return traj

        monkeypatch.setattr(lindlyap.evolution, "evolve", recording)
        model = write_doc(tmp_path, "model.json", doc)
        rc, out, _ = run(capsys, "evolve", model, "--t-end", "30", "--stride", "100")
        assert rc == 0
        (traj,) = recorded
        fmt = lindlyap.cli._fmt
        want = [
            ",".join([fmt(t)] + [fmt(c) for c in x] + [fmt(c) for c in v.ravel()])
            for t, x, v in zip(traj.times, traj.means, traj.cms)
        ]
        rows = out.splitlines()[1:]
        assert rows == want
        dim = traj.means.shape[1]
        assert rows[1].split(",")[1 : 1 + dim] == special[:dim]

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    def test_csv_rows_formats_every_cell(self, table):
        """Formatting a constant column once gives the per-cell "%.17g" row, whatever the column holds."""
        assert lindlyap.cli._csv_rows(table) == [",".join("%.17g" % x for x in row) for row in table.tolist()]

    def test_default_horizon_needs_stability(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.2, kappa=1.0)
        rc, _, err = run(capsys, "evolve", model)
        assert rc == 1 and "--t-end" in err

    def test_divergence_exits_one(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.5, kappa=1.0)
        rc, out, err = run(capsys, "evolve", model, "--t-end", "2000", "--dt", "0.1")
        assert rc == 1 and out == ""
        assert err.startswith("error: moments diverged at step ")
        assert err.count("\n") == 1


class TestWilliamson:
    def test_cm_file(self, capsys, tmp_path):
        cm = write_doc(tmp_path, "cm.json", {"cm": [[4.0, 0.0], [0.0, 1.0]]})
        rc, out, _ = run(capsys, "williamson", "--cm", cm, "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["symplectic_eigenvalues"] == pytest.approx([2.0])
        assert data["dev_form"] < 1e-12 and data["dev_diag"] < 1e-12

    def test_model_steady_state(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "williamson", model, "--json")
        assert rc == 0
        mu = json.loads(out)["symplectic_eigenvalues"]
        assert mu == pytest.approx([1.0 / np.sqrt(0.7 * 1.3)])

    def test_rejects_both_sources(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        cm = write_doc(tmp_path, "cm.json", [[4.0, 0.0], [0.0, 1.0]])
        rc, _, err = run(capsys, "williamson", model, "--cm", cm)
        assert rc == 1 and "not both" in err

    def test_needs_some_source(self, capsys):
        rc, _, err = run(capsys, "williamson")
        assert rc == 1


class TestDocumentSchema:
    def test_not_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "steady", str(path))
        assert rc == 1 and "not valid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "steady", str(tmp_path / "absent.json"))
        assert rc == 1 and "cannot read" in err

    def test_needs_catalog_or_hessian(self, capsys, tmp_path):
        model = write_doc(tmp_path, "m.json", {"xi": [0.0, 0.0]})
        rc, _, err = run(capsys, "steady", model)
        assert rc == 1 and "hessian" in err

    def test_unknown_keys(self, capsys, tmp_path):
        doc = dict(OPO_DOC)
        doc["extra"] = 1
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and "unknown keys" in err

    def test_mode_count_contradiction(self, capsys, tmp_path):
        doc = dict(OPO_DOC)
        doc["n"] = 2
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and "contradicts" in err

    def test_catalog_and_hessian_conflict(self, capsys, tmp_path):
        doc = dict(OPO_DOC)
        doc["catalog"] = "OPO"
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and "not both" in err

    def test_unknown_catalog_param(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0, detuning=0.1)
        rc, _, err = run(capsys, "steady", model)
        assert rc == 1 and "unknown parameter" in err

    def test_bad_lindblad_entry(self, capsys, tmp_path):
        doc = {
            "hessian": [[0.0, 0.0], [0.0, 0.0]],
            "lindblad": [{"lambda_re": [1.0, 0.0], "phase": 0.3}],
        }
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and "lindblad[0]" in err

    def test_bad_xi_length(self, capsys, tmp_path):
        doc = dict(OPO_DOC)
        doc["xi"] = [0.0, 0.0, 0.0]
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and '"xi"' in err

    def test_document_tolerances(self, capsys, tmp_path):
        doc = {"catalog": "OPO", "params": {"epsilon": 0.3, "kappa": 1.0}, "tolerances": {"residual_tol": 1e-6}}
        rc, _, _ = run(capsys, "steady", write_doc(tmp_path, "m.json", doc), "--json")
        assert rc == 0
        doc["tolerances"] = {"rtol": 1e-6}
        rc, _, err = run(capsys, "steady", write_doc(tmp_path, "m2.json", doc))
        assert rc == 1 and "unknown tolerance keys" in err

    def test_usage_errors_exit_one(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "no-such-command")
        assert rc == 1
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, _, _ = run(capsys, "sweep", model, "--param", "epsilon")  # missing --range
        assert rc == 1


class TestSweepParameters:
    PER_MODE = dict(omega1=0.5, omega2=0.5, kappa=1.0, zeta1=0.7, zeta2=0.7, nbar1=0.3, nbar2=0.3)

    def test_alias_on_per_mode_document(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "TwoOscThermal", **self.PER_MODE)
        rc, out, _ = run(
            capsys,
            "sweep",
            model,
            "--param",
            "nbar",
            "--range",
            "0.1:0.5:3",
            "--quantity",
            "env_classicality_min_eig",
            "--threshold",
            "classicality:env:zeta",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "nbar,env_classicality_min_eig,thr_classicality_env_zeta"
        for line in lines[1:]:
            nbar, min_eig, thr = (float(c) for c in line.split(","))
            assert np.isfinite(min_eig)
            want = catalog_analytic(
                "TwoOscThermal", "classicality_threshold_env", {**self.PER_MODE, "nbar1": nbar, "nbar2": nbar}
            )
            assert thr == pytest.approx(want * self.PER_MODE["kappa"], rel=1e-9)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--param", "zeeta", "--range", "1:2:3"],
            ["--param", "zeta", "--range", "1:2:3", "--param2", "zeeta", "--range2", "1:2:2"],
            ["--param", "zeta", "--range", "1:2:3", "--threshold", "separability:env:zeeta"],
        ],
    )
    def test_unknown_parameter_exits_one(self, capsys, tmp_path, extra):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        rc, out, err = run(capsys, "sweep", model, *extra)
        assert rc == 1 and "zeeta" in err and out == ""

    @pytest.mark.parametrize("bracket", ["0.5:40", "2:40"], ids=["crosses_stability_edge", "no_flip"])
    def test_threshold_without_flip_is_nan(self, capsys, tmp_path, bracket):
        # OPOThermal: stable above zeta = epsilon + kappa = 1.05, env separability flips at kappa / (2 nbar)
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        argv = ["sweep", model, "--param", "nbar", "--range", "0.3:0.3:1", "--threshold", "separability:env:zeta"]
        rc, out, _ = run(capsys, *argv, "--threshold-range", "1.1:40")
        assert rc == 0 and float(out.split()[-1].split(",")[-1]) == pytest.approx(1.0 / 0.6, rel=1e-12)
        rc, out, _ = run(capsys, *argv, "--threshold-range", bracket)
        assert rc == 0 and out.split()[-1].split(",")[-1] == "nan"


def test_document_tolerances_validated(capsys, tmp_path):
    doc = {"catalog": "OPO", "params": {"epsilon": 0.3, "kappa": 1.0}, "tolerances": {"residual_tol": -1}}
    rc, out, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
    assert rc == 1 and "residual_tol" in err and out == ""


def test_module_runs_the_command_line():
    """``python -m lindlyap`` runs the CLI from a source tree, without the console script."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindlyap.__file__)))
    proc = subprocess.run([sys.executable, "-m", "lindlyap", "--help"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lindlyap")


def test_cli_import_loads_only_scipy_linalg():
    """Start-up cost: importing the CLI pulls in scipy.linalg and no other scipy subpackage."""
    src = os.path.dirname(os.path.dirname(lindlyap.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import lindlyap.cli; "
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in proc.stdout.split() if not name.startswith("_")}
    assert "optimize" not in loaded
    assert loaded <= {"linalg", "version"}


# the start-up test's script: the commands that need no matrix exponential leave the scipy.linalg
# package unimported, and evolve imports it for expm
NO_EXPM_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from lindlyap.cli import main
model = sys.argv[2]
for argv in (["steady", model], ["stability", model], ["criteria", model, "--json"], ["williamson", model],
             ["engineer", "--catalog", "TMTSS", "--params", "r=0.5,nbar=0.2"],
             ["sweep", model, "--param", "epsilon", "--range", "0:0.5:3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "scipy.linalg" not in sys.modules, argv
assert main(["evolve", model, "--t-end", "1", "--dt", "0.01", "--stride", "50"]) == 0
assert "scipy.linalg" in sys.modules
"""
OPO_EVOLVE_CSV = (
    "t,x0,x1,V_0_0,V_0_1,V_1_0,V_1_1\n"
    "0,0,0,5,0,0,5\n"
    "0.5,0,0,3.9453146061382625,0,0,2.977885978604299\n"
    "1,0,0,3.2020903706836057,0,0,1.922249893605438\n"
)


def test_only_evolve_imports_scipy_linalg(tmp_path):
    """steady, stability, criteria, williamson, engineer and a threshold-free sweep run on
    scipy's compiled LAPACK module alone; evolve then imports scipy.linalg for expm."""
    src = os.path.dirname(os.path.dirname(lindlyap.__file__))
    model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
    proc = subprocess.run([sys.executable, "-c", NO_EXPM_SCRIPT, src, model], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == OPO_EVOLVE_CSV


class TestNonFiniteDocuments:
    """A NaN or infinite number in a document exits 1 with a message naming its field."""

    def check(self, capsys, tmp_path, doc, message):
        rc, out, err = run(capsys, "steady", write_doc(tmp_path, "m.json", doc))
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_catalog_parameter(self, capsys, tmp_path):
        doc = {"catalog": "OPOThermal", "params": {"epsilon": float("nan"), "kappa": 0.8, "zeta": 1.5, "nbar": 0.3}}
        self.check(capsys, tmp_path, doc, "parameter 'epsilon' of OPOThermal must be finite, got nan")

    def test_explicit_hessian(self, capsys, tmp_path):
        doc = json.loads(json.dumps(OPO_DOC))
        doc["hessian"][0][1] = doc["hessian"][1][0] = float("nan")
        self.check(capsys, tmp_path, doc, "hessian is not finite: it has a NaN or infinite entry")

    def test_explicit_coupling(self, capsys, tmp_path):
        doc = json.loads(json.dumps(OPO_DOC))
        doc["lindblad"][0]["lambda_re"][1] = float("inf")
        self.check(capsys, tmp_path, doc, "lindblad[0]: coupling lambda is not finite: it has a NaN or infinite entry")


class TestEvolveFlags:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--stride", "-5"], "--stride must be at least 1, got -5"),
            (["--stride", "0"], "--stride must be at least 1, got 0"),
            (["--v0-scale", "-1"], "--v0-scale must be nonnegative, got -1.0"),
            (["--v0-scale", "inf"], "--v0-scale must be finite, got inf"),
            (["--v0-scale", "nan"], "--v0-scale must be finite, got nan"),
            *[
                ([flag, value], f"{flag} must be finite and positive, got {float(value)}")
                for flag in ("--t-end", "--dt")
                for value in ("0", "-1", "nan", "inf")
            ],
        ],
    )
    def test_bad_flag_exits_one(self, capsys, tmp_path, flags, message):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        rc, out, err = run(capsys, "evolve", model, "--t-end", "0.01", "--dt", "0.001", *flags)
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_stride_one_records_every_step(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        rc, out, _ = run(capsys, "evolve", model, "--t-end", "0.01", "--dt", "0.001", "--stride", "1")
        assert rc == 0 and len(out.strip().splitlines()) == 12  # header and t = 0 .. 0.01


def spoiled(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` (a tuple of keys and indices) set to ``value``."""
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


DOC = "DOC"  # stands for the path of the row's document in an argv
FULL_DOC = {  # the explicit OPO document with every optional field present
    **OPO_DOC,
    "xi": [0.0, 0.0],
    "h0": 0.0,
    "lindblad": [{**OPO_DOC["lindblad"][0], "mu_re": 0.0, "mu_im": 0.0}],
}
FULL_CATALOG_DOC = {
    "catalog": "OPOThermal",
    "params": {"epsilon": 0.05, "kappa": 0.8, "zeta": 1.5, "nbar": 0.3},
    "tolerances": {"residual_tol": 1e-8},
}
UNSTABLE = {"catalog": "OPO", "params": {"epsilon": 1.2, "kappa": 1.0}}
MARGINAL = {"catalog": "OPO", "params": {"epsilon": 1.0, "kappa": 1.0}}
UNSTABLE_PAIR = {"catalog": "CascadedOPO", "params": {"epsilon1": 1.3, "epsilon2": -0.2, "kappa": 1.0}}
UNSTABLE_LINE = (
    "model is unstable (spectral abscissa 0.099999999999999867); "
    "this computation needs an asymptotically stable drift matrix"
)
MARGINAL_LINE = (
    "model is marginally stable (spectral abscissa -1.1102230246251565e-16); "
    "this computation needs an asymptotically stable drift matrix"
)
CATALOG_IDS = "['TwoOscThermal', 'TwoOscRWA', 'OPO', 'CascadedOPO', 'OPOThermal', 'TMTSS']"
NOT_SYMMETRIC = "is not Hermitian (symmetric if real): ||m - m^dag||_inf = 5.000e-01 exceeds 1.0e-08 * 2.000e+00"


def field(base, path, value, line):
    """A table row: ``steady`` on ``base`` with one field spoiled exits 1 with ``line``."""
    name = ".".join(str(key) for key in path)
    return pytest.param(["steady", DOC], spoiled(base, path, value), 1, line, id=f"{name}={value!r}")


def matrix_doc(argv, doc, line):
    """A table row: a --cm or --target document that exits 1 with ``line``."""
    return pytest.param(argv, doc, 1, line, id=f"{argv[0]}:{json.dumps(doc)}")


def matrix_rows(argv, what):
    return [
        matrix_doc(argv, {"cm": None}, f"{what} must be square, got shape ()"),
        matrix_doc(argv, {"cm": "abc"}, f"{what} must be a numeric matrix: could not convert string to float: 'abc'"),
        matrix_doc(argv, {"cm": [[2.0, "abc"], ["abc", 2.0]]},
                   f"{what} must be a numeric matrix: could not convert string to float: 'abc'"),
        matrix_doc(argv, {"cm": [[2.0, 0.0, 0.0]]}, f"{what} must be square, got shape (1, 3)"),
        matrix_doc(argv, [[2.0, 0.0, 0.0]], f"{what} must be square, got shape (1, 3)"),
        matrix_doc(argv, {"cm": [[2.0]]}, f"{what} must be 2n x 2n with n >= 1, got shape (1, 1)"),
        matrix_doc(argv, {"cm": [[2.0, None], [None, 2.0]]}, f"{what} is not finite: it has a NaN or infinite entry"),
        matrix_doc(argv, {"cm": [[2.0, 0.5], [0.0, 2.0]]}, f"{what} {NOT_SYMMETRIC}"),
    ]


def number_rows(base, path, what):
    return [
        field(base, path, None, f"{what} must be a number, got None"),
        field(base, path, "abc", f"{what} must be a number, got 'abc'"),
        field(base, path, [0.5], f"{what} must be a number, got [0.5]"),
    ]


REFUSALS = [
    # every field of a catalog document: null, a non-numeric string, a wrong shape
    field(FULL_CATALOG_DOC, ("catalog",), None, f'"catalog" must be one of {CATALOG_IDS}, got None'),
    field(FULL_CATALOG_DOC, ("catalog",), "abc", f'"catalog" must be one of {CATALOG_IDS}, got \'abc\''),
    field(FULL_CATALOG_DOC, ("catalog",), ["OPO"], f'"catalog" must be one of {CATALOG_IDS}, got [\'OPO\']'),
    pytest.param(["engineer", "--catalog", "abc", "--params", "r=0.8,nbar=0.2"], {}, 1,
                 f"--catalog must be one of {CATALOG_IDS}, got 'abc'", id="engineer:--catalog=abc"),
    # a TMTSS document is built by engineering; squeezing beyond what the recipe realizes is bad input
    *[
        pytest.param(["steady", DOC], {"catalog": "TMTSS", "params": {"r": r, "nbar": 0.2}}, 1,
                     f"TMTSS parameters r = {r!r}, nbar = 0.2 lie outside the range its engineering recipe "
                     f"realizes: {reason}", id=f"steady:TMTSS-r={r}")
        for r, reason in (
            (720.0, "overflow encountered in matmul"),
            (2000.0, "squeezing 1000.0 overflows double precision"),
        )
    ],
    field(FULL_CATALOG_DOC, ("params",), None, '"params" must be an object'),
    field(FULL_CATALOG_DOC, ("params",), "abc", '"params" must be an object'),
    field(FULL_CATALOG_DOC, ("params",), [0.5], '"params" must be an object'),
    *number_rows(FULL_CATALOG_DOC, ("params", "epsilon"), "parameter 'epsilon' of OPOThermal"),
    field(FULL_CATALOG_DOC, ("tolerances",), None, '"tolerances" must be an object'),
    field(FULL_CATALOG_DOC, ("tolerances",), "abc", '"tolerances" must be an object'),
    field(FULL_CATALOG_DOC, ("tolerances",), [0.5], '"tolerances" must be an object'),
    *number_rows(FULL_CATALOG_DOC, ("tolerances", "residual_tol"), "tolerance residual_tol"),
    # every field of an explicit document
    *number_rows(FULL_DOC, ("n",), '"n"'),
    field(FULL_DOC, ("n",), 1.5, '"n" = 1.5 contradicts hessian shape (2, 2)'),
    field(FULL_DOC, ("hessian",), None, '"hessian" must be square, got shape ()'),
    field(FULL_DOC, ("hessian",), "abc", "\"hessian\" must be a numeric matrix: could not convert string to float: 'abc'"),
    field(FULL_DOC, ("hessian",), [[0.0, 0.15, 0.0]], '"hessian" must be square, got shape (1, 3)'),
    field(FULL_DOC, ("hessian",), [[1.0]], '"hessian" must be 2n x 2n with n >= 1, got shape (1, 1)'),
    field(FULL_DOC, ("hessian",), [[0.0, None], [None, 0.0]], "hessian is not finite: it has a NaN or infinite entry"),
    field(FULL_DOC, ("xi",), None, '"xi" must have length 2, got shape ()'),
    field(FULL_DOC, ("xi",), "abc", "\"xi\" must be a numeric vector: could not convert string to float: 'abc'"),
    field(FULL_DOC, ("xi",), ["abc", 0.0], "\"xi\" must be a numeric vector: could not convert string to float: 'abc'"),
    field(FULL_DOC, ("xi",), [0.0, 0.0, 0.0], '"xi" must have length 2, got shape (3,)'),
    field(FULL_DOC, ("xi",), [None, 0.0], "linear term xi is not finite: it has a NaN or infinite entry"),
    *number_rows(FULL_DOC, ("h0",), '"h0"'),
    field(FULL_DOC, ("lindblad",), None, '"lindblad" must be a list'),
    field(FULL_DOC, ("lindblad",), "abc", '"lindblad" must be a list'),
    field(FULL_DOC, ("lindblad",), {"lambda_re": [1.0, 0.0]}, '"lindblad" must be a list'),
    field(FULL_DOC, ("lindblad", 0), None, "lindblad[0] must be an object"),
    field(FULL_DOC, ("lindblad", 0), "abc", "lindblad[0] must be an object"),
    field(FULL_DOC, ("lindblad", 0), [1.0, 0.0], "lindblad[0] must be an object"),
    *[
        row
        for key in ("lambda_re", "lambda_im")
        for row in (
            field(FULL_DOC, ("lindblad", 0, key), None, f"lindblad[0].{key} must have length 2, got shape ()"),
            field(FULL_DOC, ("lindblad", 0, key), "abc",
                  f"lindblad[0].{key} must be a numeric vector: could not convert string to float: 'abc'"),
            field(FULL_DOC, ("lindblad", 0, key), [[0.7, 0.0]], f"lindblad[0].{key} must have length 2, got shape (1, 2)"),
        )
    ],
    field(FULL_DOC, ("lindblad", 0, "lambda_re"), [None, 0.0],
          "lindblad[0]: coupling lambda is not finite: it has a NaN or infinite entry"),
    *number_rows(FULL_DOC, ("lindblad", 0, "mu_re"), "lindblad[0].mu_re"),
    *number_rows(FULL_DOC, ("lindblad", 0, "mu_im"), "lindblad[0].mu_im"),
    # the --cm and --target documents share one loader
    *matrix_rows(["williamson", "--cm", DOC], "covariance matrix"),
    *matrix_rows(["engineer", "--target", DOC], "target covariance matrix"),
    # the flags of engineer and sweep: --params belongs to --catalog, ranges have finite endpoints
    pytest.param(["engineer", "--target", DOC, "--params", "r=0.8,nbar=0.2"], {"cm": (2.0 * np.eye(2)).tolist()}, 1,
                 "--params needs --catalog; a --target document takes no parameters", id="engineer:--target+--params"),
    pytest.param(["engineer", "--catalog", "TMTSS", "--params", "r=0.8,r=5,nbar=0.2"], {}, 1,
                 "--params gives 'r' more than once", id="engineer:--params=r-twice"),
    *[
        pytest.param(["sweep", DOC, "--param", "zeta", *flags], FULL_CATALOG_DOC, 1, line, id=f"sweep:{flags[-2]}={flags[-1]}")
        for flags, line in (
            (["--range", "nan:2:2"], "--range must be A:B:STEPS: endpoint 'nan' is not finite"),
            (["--range", "1:inf:2"], "--range must be A:B:STEPS: endpoint 'inf' is not finite"),
            (["--range", "1:2:2", "--param2", "nbar", "--range2", "0.1:-inf:2"],
             "--range2 must be A:B:STEPS: endpoint '-inf' is not finite"),
            (["--range", "1:2:2", "--threshold-range", "1:nan"],
             "--threshold-range must be A:B: endpoint 'nan' is not finite"),
        )
    ],
    # --partition and --tol refusals of the library name the flag
    *[
        pytest.param([*argv, "--partition", value], FULL_CATALOG_DOC, 1,
                     "--partition: part two must be a nonempty proper subset of the modes",
                     id=f"{argv[0]}:--partition={value}")
        for argv in (["criteria", DOC],
                     ["sweep", DOC, "--param", "zeta", "--range", "1:2:2", "--quantity", "env_separability_min_eig"])
        for value in ("1,2", ",")
    ],
    # a given --partition is parsed also where no criterion kind reads it
    *[
        pytest.param([*argv, "--partition", "9"], FULL_CATALOG_DOC, 1, "--partition modes must lie in 1..2",
                     id=f"{argv[0]}:--partition-unread")
        for argv in (["criteria", DOC, "--kind", "uncertainty", "--level", "env"],
                     ["sweep", DOC, "--param", "zeta", "--range", "1:2:2"])
    ],
    *[
        pytest.param([*argv, "--tol", value], FULL_CATALOG_DOC, 1,
                     f"--tol: tolerance eig_zero_band must be finite and nonnegative, got {float(value)}",
                     id=f"{argv[0]}:--tol={value}")
        for argv in (["steady", DOC], ["sweep", DOC, "--param", "zeta", "--range", "1:2:2"],
                     ["engineer", "--catalog", "TMTSS", "--params", "r=0.5,nbar=0.2"])
        for value in ("-1", "nan")
    ],
    # exit 2: the computation needs an asymptotically stable model; `stability` reports on stdout
    *[
        pytest.param([command, DOC], doc, 2, line, id=f"{command}:{name}")
        for command in ("steady", "criteria", "williamson", "stability")
        for doc, name, line in ((UNSTABLE, "unstable", UNSTABLE_LINE), (MARGINAL, "marginal", MARGINAL_LINE))
    ],
    pytest.param(
        ["criteria", DOC, "--partition", "5"], UNSTABLE_PAIR, 2,
        "model is unstable (spectral abscissa 0.15000000000000013); "
        "this computation needs an asymptotically stable drift matrix",
        id="criteria:unstable-before-partition",
    ),
    pytest.param(["evolve", DOC], UNSTABLE, 1, "--t-end is required for a model that is not asymptotically stable",
            id="evolve:unstable-default-horizon"),
    # exit 3: the reservoir cannot be engineered
    pytest.param(
        ["engineer", "--target", DOC], {"cm": (0.5 * np.eye(2)).tolist()}, 3,
        "target is not physical: smallest symplectic eigenvalue 0.50000000000000011 < 1",
        id="engineer:unphysical",
    ),
    # a squeezed mode is judged after balancing its q and p variances, so at any squeezing
    pytest.param(
        ["engineer", "--target", DOC], {"cm": np.diag([1e6, 1e-7]).tolist()}, 3,
        "target is not physical: smallest symplectic eigenvalue 0.316227766016838 < 1",
        id="engineer:squeezed-unphysical",
    ),
    pytest.param(
        ["engineer", "--target", DOC], {"cm": np.diag([1.0, 1.0, -1.0, 1.0]).tolist()}, 3,
        "target is not physical: it has variance -1 <= 0", id="engineer:negative-variance",
    ),
    pytest.param(
        ["engineer", "--target", DOC], {"cm": [[2.0, 3.0], [3.0, 2.0]]}, 3,
        "target is not physical: it is not positive semidefinite", id="engineer:indefinite",
    ),
]


@pytest.mark.parametrize("argv, doc, code, line", REFUSALS)
def test_refusal_table(capsys, tmp_path, argv, doc, code, line):
    """Each refusal exits with its code and one exact stderr line; only `stability` prints a report."""
    path = write_doc(tmp_path, "doc.json", doc)
    rc, out, err = run(capsys, *(path if arg == DOC else arg for arg in argv))
    assert (rc, err) == (code, "" if argv[0] == "stability" else f"error: {line}\n")
    assert (out != "") == (argv[0] == "stability")


@pytest.mark.parametrize("doc", [FULL_DOC, FULL_CATALOG_DOC], ids=["explicit", "catalog"])
def test_refusal_table_documents_are_valid_unspoiled(capsys, tmp_path, doc):
    rc, _, err = run(capsys, "steady", write_doc(tmp_path, "doc.json", doc))
    assert (rc, err) == (0, "")


CASCADE = {"catalog": "CascadedOPO", "params": {"epsilon1": 0.3, "epsilon2": -0.2, "kappa": 1.0}}
TWO_OSC = {"catalog": "TwoOscThermal", "params": {"omega": 0.5, "kappa": 1.0, "zeta": 0.7, "nbar": 0.3}}
THRESHOLD_SWEEP = ["--param", "zeta", "--range", "1.1:2:3", "--quantity", "purity", "--quantity",
                   "env_separability_min_eig", "--threshold", "separability:env:zeta", "--threshold-range", "1.1:40"]


def golden(name, argv, doc, md5, code=0):
    return pytest.param(argv, doc, code, md5, id=name)


# the stdout of every subcommand, in text and --json where offered, pinned by its md5
GOLDEN = [
    golden("steady", ["steady", DOC], FULL_DOC, "317af864e704c64b9c074f74c1470128"),
    golden("steady-json", ["steady", DOC, "--json"], FULL_DOC, "e1a587f40453099c82af9a5adeb0ca26"),
    golden("steady-json-catalog", ["steady", DOC, "--json"], FULL_CATALOG_DOC, "30bd59abf8880eddbdc16442646ec5c6"),
    golden("stability", ["stability", DOC], TWO_OSC, "a954a24ad385c8af8c4341c0da9d4a95"),
    golden("stability-json", ["stability", DOC, "--json"], TWO_OSC, "7126a109b947a1908608fc4809cd9505"),
    golden("stability-unstable", ["stability", DOC], UNSTABLE, "46a9150a9aafa0c0b1fdc86903b2a2b7", code=2),
    golden("stability-unstable-json", ["stability", DOC, "--json"], UNSTABLE, "96bacb19a05a71d3e6e2ec8287a8adc5",
           code=2),
    golden("criteria", ["criteria", DOC], CASCADE, "6dbafdb600dec803cae66ad2aa5c7cf6"),
    golden("criteria-json", ["criteria", DOC, "--json"], CASCADE, "8a7787cbdd87bb5dcde0f38f5a751877"),
    # OPOThermal's drift is symmetric but does not commute with the shifted diffusion of either
    # steering direction, so both verdicts are sufficient_only
    golden("criteria-steerability-json",
           ["criteria", DOC, "--kind", "steerability", "--level", "env", "--partition", "1", "--json"],
           FULL_CATALOG_DOC, "650d4f8c49fca7f78561eab4d76999f9"),
    golden("sweep-threshold", ["sweep", DOC, *THRESHOLD_SWEEP], FULL_CATALOG_DOC, "b156ea0370c0f5bad9b393c128bdcb2e"),
    golden("sweep-two-parameters",
           ["sweep", DOC, "--param", "zeta", "--range", "1:2:2", "--param2", "nbar", "--range2", "0.1:0.3:2"],
           FULL_CATALOG_DOC, "7459c3d7d1d94ad05bfc2cf4b7e21f63"),
    golden("engineer", ["engineer", "--catalog", "TMTSS", "--params", "r=0.5,nbar=0.2"], {},
           "022496b59d6b0809b5f6916d1b7eea32"),
    golden("engineer-json", ["engineer", "--catalog", "TMTSS", "--params", "r=0.5,nbar=0.2", "--json"], {},
           "c6942436ca11be94080fbe9654b5064b"),
    golden("engineer-json-null-spectrum", ["engineer", "--catalog", "TMTSS", "--params", "r=17,nbar=0.2", "--json"],
           {}, "24172aaf76a094a0c248d5b7d09f0e27"),
    golden("engineer-target-json", ["engineer", "--target", DOC, "--json"],
           {"cm": np.diag([3.0, 1.0, 3.0, 1.0]).tolist()}, "6c091c1ae07c45ca4a90c74ebe4024dc"),
    golden("evolve", ["evolve", DOC, "--t-end", "0.05", "--stride", "7"], FULL_CATALOG_DOC,
           "28a65a28ee4a57b3999fb906fbfdc051"),
    golden("evolve-json", ["evolve", DOC, "--t-end", "0.05", "--json"], FULL_CATALOG_DOC,
           "125676dddaafe7eade1fa2af0a53db17"),
    golden("evolve-json-driven", ["evolve", DOC, "--t-end", "1", "--dt", "0.01", "--stride", "50", "--json"],
           {**FULL_DOC, "xi": [0.3, -0.7]}, "49d619c48468ee326116d6087df7b364"),
    golden("williamson", ["williamson", DOC], CASCADE, "7b452a0f308bd61ccb54f7861a30e048"),
    golden("williamson-json", ["williamson", DOC, "--json"], CASCADE, "cc6931d768c6bd72f941357c1ef39795"),
    golden("williamson-cm-json", ["williamson", "--cm", DOC, "--json"], {"cm": [[4.0, 0.5], [0.5, 1.0]]},
           "f8f4dc0b2477810fbf0ac3636c15c0ef"),
]


@pytest.mark.parametrize("argv, doc, code, md5", GOLDEN)
def test_golden_output(capsys, tmp_path, argv, doc, code, md5):
    """Each run prints its pinned stdout and nothing on stderr; --output FILE writes those bytes to
    FILE and none to stdout, also for `stability` on an unstable model, which exits 2."""
    argv = [write_doc(tmp_path, "doc.json", doc) if arg == DOC else arg for arg in argv]
    rc, out, err = run(capsys, *argv)
    assert (rc, err, hashlib.md5(out.encode()).hexdigest()) == (code, "", md5)
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--output", str(path)) == (code, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("target, code", [("missing/out.txt", errno.ENOENT), (".", errno.EISDIR), (None, errno.ENOENT)],
                         ids=["missing-directory", "directory", "empty"])
def test_unwritable_output_exits_one(capsys, tmp_path, target, code):
    """An --output path that cannot be written, the empty one included, is refused on stderr, naming
    the flag, and main returns 1."""
    path = "" if target is None else str(tmp_path / target)
    rc, out, err = run(capsys, "steady", write_doc(tmp_path, "doc.json", FULL_DOC), "--output", path)
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write --output {path}: [Errno {code}] {os.strerror(code)}: {path!r}\n"


class TestInProcessEntryPoint:
    """main(argv) returns the exit code and can be called again: one parser serves every call of a process."""

    def test_one_parser_per_process(self, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=0.3, kappa=1.0)
        src = os.path.dirname(os.path.dirname(lindlyap.__file__))
        code = f"""
import argparse, contextlib, io, json, sys
sys.path.insert(0, {src!r})
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from lindlyap.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["steady", {model!r}])]
    first = len(built)
    codes += [main(argv) for argv in (["stability", {model!r}], ["no-such-command"], ["steady", {model!r}])]
print(json.dumps([codes, first, len(built)]))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, first, total = json.loads(proc.stdout)
        assert codes == [0, 0, 1, 0]
        # the first call builds the parser and its subcommand parsers; the three later calls build none
        assert first > 1 and total == first

    def test_shared_parser_leaks_nothing_between_calls(self, capsys, tmp_path, monkeypatch):
        """Each call of a sequence in this process prints and returns what it does first in a fresh one."""
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width, read per call
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        unstable = catalog_doc(tmp_path, "OPO", epsilon=1.2, kappa=1.0)
        calls = [
            ["evolve", model, "--stride", "seven"],
            ["evolve", model, "--stride", "7", "--t-end", "0.05"],
            ["evolve", model, "--t-end", "0.05"],
            ["criteria", model, "--json"],
            ["--help"],
            ["steady", unstable],
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindlyap.__file__)))
        code = "import sys; from lindlyap.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = [
            subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for argv in calls
        ]
        shared = [run(capsys, *argv) for argv in calls]
        want = []
        for proc in fresh:
            out, err = proc.communicate(timeout=120)
            want.append((proc.returncode, out, err))
        assert shared == want
        assert [rc for rc, _, _ in shared] == [1, 0, 0, 0, 0, 2]
        assert shared[0][2].startswith("usage: lindlyap evolve") and "invalid int value: 'seven'" in shared[0][2]
        # --stride 7 records t = 0, 0.007, ..., 0.049 and the end; the default stride of 200 only t = 0 and the end
        assert len(shared[1][1].splitlines()) == 10 and len(shared[2][1].splitlines()) == 3
        assert shared[4][1].startswith("usage: lindlyap [-h]")
