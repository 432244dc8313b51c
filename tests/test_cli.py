import json
import os
import subprocess
import sys

import numpy as np
import pytest

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

    def test_unknown_quantity(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "sweep",
            self.model(tmp_path),
            "--param",
            "zeta",
            "--range",
            "1:2:2",
            "--quantity",
            "entropy",
        )
        assert rc == 1 and "unknown quantity" in err

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


class TestEngineer:
    def test_tmtss_gibbs(self, capsys, tmp_path):
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
        assert data["method"] == "gibbs"
        assert np.abs(np.array(data["target"]) - 2.0 * squeeze_transform(0.8)).max() < 1e-12
        assert np.allclose(np.array(data["drift_matrix"]), -0.5 * np.eye(4), atol=1e-12)
        assert data["verification"]["steady_cm_max_dev"] < 1e-8
        assert np.allclose(data["symplectic_spectrum"], [2.0, 2.0], atol=1e-9)

    def test_gibbs_refuses_mixed_spectrum(self, capsys, tmp_path):
        target = write_doc(tmp_path, "target.json", {"cm": np.diag([3.0, 1.0, 3.0, 1.0]).tolist()})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 3
        assert "use --method covariant" in err

    def test_covariant_handles_mixed_spectrum(self, capsys, tmp_path):
        cm = np.diag([3.0, 1.0, 3.0, 1.0])
        target = write_doc(tmp_path, "target.json", {"cm": cm.tolist()})
        rc, out, _ = run(capsys, "engineer", "--target", target, "--method", "covariant", "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["verification"]["steady_cm_max_dev"] < 1e-8
        assert sorted(data["symplectic_spectrum"]) == pytest.approx([1.0, 3.0])

    def test_unphysical_target(self, capsys, tmp_path):
        target = write_doc(tmp_path, "bad.json", {"cm": (0.5 * np.eye(2)).tolist()})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 3 and "not physical" in err

    def test_text_report(self, capsys, tmp_path):
        target = write_doc(tmp_path, "t.json", {"cm": (2.0 * np.eye(2)).tolist()})
        rc, out, _ = run(capsys, "engineer", "--target", target)
        assert rc == 0
        assert "engineered drift matrix:" in out
        assert "steady-state deviation from target:" in out

    def test_input_validation(self, capsys, tmp_path):
        rc, _, err = run(capsys, "engineer")
        assert rc == 1 and "--target" in err
        rc, _, err = run(capsys, "engineer", "--catalog", "TMTSS", "--params", "r=0.8")
        assert rc == 1 and "missing parameters" in err
        target = write_doc(tmp_path, "asym.json", {"cm": [[1.0, 0.5], [0.0, 1.0]]})
        rc, _, err = run(capsys, "engineer", "--target", target)
        assert rc == 1 and "symmetric" in err


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

    def test_default_horizon_needs_stability(self, capsys, tmp_path):
        model = catalog_doc(tmp_path, "OPO", epsilon=1.2, kappa=1.0)
        rc, _, err = run(capsys, "evolve", model)
        assert rc == 1 and "--t-end" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--t-end", "inf"], "t_end"),
            (["--dt", "0"], "dt"),
            (["--dt", "-1"], "dt"),
            (["--v0-scale", "nan"], "v0"),
        ],
    )
    def test_bad_input_exits_one(self, capsys, tmp_path, flags, field):
        model = catalog_doc(tmp_path, "OPOThermal", epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)
        rc, out, err = run(capsys, "evolve", model, *flags)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {field} must be finite")

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
