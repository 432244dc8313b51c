import ast
import importlib
import inspect
import math
import pkgutil
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindlyap
from lindlyap import (
    Classicality,
    Conclusiveness,
    GaussianDynamics,
    InertiaIndex,
    Level,
    LindbladVector,
    QuadraticHamiltonian,
    Tolerances,
    Uncertainty,
    Verdict,
    catalog_build,
    engineer_covariant_target,
    engineer_gibbs_target,
    environment_criterion,
    evolve,
    physical_spectrum,
    realize_lindblad,
    residual,
    schur_form,
    solve,
    solve_integral,
    squeeze_transform,
    stability_check,
    state_criterion,
    symplectic_form,
    thermal_bath,
    transform_triple,
    williamson_decompose,
    xi_matrix,
)
from lindlyap.williamson import EngineeringError
from lindlyap.core import (
    DEFAULT_TOL,
    check_hermitian,
    classify_spectrum,
    hermitian_part,
    read_matrix,
    read_number,
)


class TestSymplecticForm:
    def test_block_structure(self):
        j = symplectic_form(2)
        assert np.array_equal(j[:2, 2:], np.eye(2))
        assert np.array_equal(j[2:, :2], -np.eye(2))
        assert not j[:2, :2].any()
        assert not j[2:, 2:].any()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_antisymmetric_orthogonal(self, n):
        j = symplectic_form(n)
        assert np.array_equal(j.T, -j)
        assert np.allclose(j @ j.T, np.eye(2 * n))
        assert np.allclose(j @ j, -np.eye(2 * n))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)

    @pytest.mark.parametrize("n", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_rejects_a_mode_count_that_is_not_an_integer(self, n):
        symplectic_form(2)  # an equal key's cached entry must not let a non-integer through
        with pytest.raises(ValueError, match="^mode count must be an integer"):
            symplectic_form(n)


class TestHermitianHelpers:
    def test_hermitian_part(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(hermitian_part(m), [[1.0, 1.0], [1.0, 3.0]])

    def test_hermitian_part_keeps_an_exactly_hermitian_matrix(self):
        """Subnormal entries keep their last bit; an asymmetric part is still averaged exactly."""
        tiny = 3 * np.finfo(float).smallest_subnormal
        m = np.array([[1.0, tiny], [tiny, 1.0]])
        assert np.array_equal(hermitian_part(m), m)
        z = np.array([[1.0, tiny + 1j * tiny], [tiny - 1j * tiny, 2.0]])
        assert np.array_equal(hermitian_part(z), z)
        out = hermitian_part(np.array([[1.0 + 1j, 2.0], [0.0, 3.0]]))
        assert np.array_equal(out, [[1.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(out, out.conj().T)

    def test_check_hermitian_accepts_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        out = check_hermitian(m)
        assert np.allclose(out, out.conj().T)

    def test_check_hermitian_rejects(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_check_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            check_hermitian(np.zeros((2, 3)))

    def test_hermitian_part_near_the_largest_float(self):
        z = 1.5e308 * (1 + 1j)
        m = np.array([[0.0, z], [np.conj(z), 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = check_hermitian(m)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, m)


def three_sum_classification(eig, tol):
    """The counting rule classify_spectrum once used: one reduction per sign class, with the
    band eig_zero_band * max |eig|; and the verdict of that inertia."""
    band = tol.eig_zero_band * (np.abs(eig).max() if eig.size else 0.0)
    idx = InertiaIndex(
        positive=int(np.sum(eig > band)),
        zero=int(np.sum(np.abs(eig) <= band)),
        negative=int(np.sum(eig < -band)),
    )
    if idx.negative > 0:
        return idx, Verdict.VIOLATED
    if idx.zero > 0:
        return idx, Verdict.MARGINAL
    return idx, Verdict.HOLDS


def classified(eig, tol, size=0.0):
    """The inertia of eig and the verdict that the criteria's one builder reads off a tested matrix
    with that spectrum and a shift of the given size (0 adds nothing to the zero band)."""
    idx = classify_spectrum(eig, tol, size)
    with mock.patch.object(np.linalg, "eigvalsh", return_value=eig):
        res = lindlyap.criteria._result(Classicality(), Level.STATE, None, Conclusiveness.IFF, tol, size)
    assert res.inertia == idx
    return idx, res.verdict


class TestClassifySpectrum:
    @pytest.mark.parametrize("zero_band", [1e-9, 0.25, 0.0])
    def test_matches_the_three_sum_rule(self, zero_band):
        """Random spectra in any order, with entries at +-band and one ulp to either side of each."""
        tol = Tolerances(eig_zero_band=zero_band)
        rng = np.random.default_rng(int(1e3 * zero_band) + 17)
        for _ in range(300):
            top = float(rng.choice([0.5, 1.0, 7.0, 1e6]))
            band = tol.eig_zero_band * top
            edges = [band, -band]
            edges += [np.nextafter(e, d) for e in (band, -band) for d in (np.inf, -np.inf)]
            pool = np.array([top, -top, 0.0, *edges, *rng.uniform(-top, top, 4)])
            eig = rng.choice(pool, size=int(rng.integers(1, 12)))
            eig[0] = rng.choice([top, -top])  # fixes max |eig|, so the band is the one above
            rng.shuffle(eig)
            assert classified(eig, tol) == three_sum_classification(eig, tol)

    @pytest.mark.parametrize(
        "eig, zero_band, expected",
        [
            ([], 1e-9, (InertiaIndex(0, 0, 0), Verdict.HOLDS)),
            ([3.0, -1.0, 0.0, 2.0], 1e-9, (InertiaIndex(2, 1, 1), Verdict.VIOLATED)),
            ([1e9, 1e-3], 1e-9, (InertiaIndex(1, 1, 0), Verdict.MARGINAL)),
            ([1.0, 1e-3], 1e-9, (InertiaIndex(2, 0, 0), Verdict.HOLDS)),
            ([1.0, 1e-12], 1e-9, (InertiaIndex(1, 1, 0), Verdict.MARGINAL)),
            ([1.0, 1e-12], 1e-14, (InertiaIndex(2, 0, 0), Verdict.HOLDS)),
        ],
        ids=["empty", "mixed signs", "1e-3 next to 1e9", "1e-3 next to 1", "1e-12 in the band",
             "1e-12 past a narrower band"],
    )
    def test_pinned_spectra(self, eig, zero_band, expected):
        """The band is relative: 1e-3 counts as zero next to 1e9 but not next to 1; and
        eig_zero_band alone decides whether a small eigenvalue makes the spectrum marginal."""
        eig, tol = np.array(eig), Tolerances(eig_zero_band=zero_band)
        assert classified(eig, tol) == expected == three_sum_classification(eig, tol)

    def test_inertia_str_format(self):
        assert str(InertiaIndex(2, 1, 1)) == "(+2, 0:1, -1)"

    @pytest.mark.parametrize(
        "eig, zero_band",
        [
            ([float("nan"), 1.0, -2.0], 1e-9),
            ([1.0, float("nan"), -2.0], 1e-9),
            ([1.0, -2.0, float("nan")], 1e-9),
            ([-2.0, float("nan"), float("nan"), 3.0], 0.25),
            ([float("inf"), 1.0, -2.0], 1e-9),
            ([1.0, -2.0, float("-inf")], 1e-9),
            ([float("-inf"), 0.0, float("inf")], 1e-9),
            ([1.0, float("inf")], 0.0),
            ([-1.0, float("nan")], 0.0),
        ],
        ids=["nan first", "nan middle", "nan last", "two nans", "+inf", "-inf", "both infs",
             "inf, no band", "nan, no band"],
    )
    def test_non_finite_spectrum_counts_as_zero(self, eig, zero_band):
        """A NaN makes the band NaN, wherever it sits in the spectrum, and an infinity makes it
        infinite (NaN with no band), so every eigenvalue counts as zero and the verdict is marginal."""
        eig = np.array(eig)
        idx, verdict = classified(eig, Tolerances(eig_zero_band=zero_band), 1.0)
        assert idx == InertiaIndex(positive=0, zero=eig.size, negative=0)
        assert verdict is Verdict.MARGINAL


class TestTolerances:
    def test_frozen(self):
        with pytest.raises(Exception):
            Tolerances().residual_tol = 1.0


class TestToleranceValidation:
    @pytest.mark.parametrize("field", ["eig_zero_band", "stability_margin", "residual_tol"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})

    def test_zero_accepted(self):
        assert Tolerances(eig_zero_band=0.0).eig_zero_band == 0.0

    @pytest.mark.parametrize("value", [None, "abc", [1e-6]])
    def test_rejects_a_non_number_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"tolerance residual_tol must be a number, got {value!r}")):
            Tolerances(residual_tol=value)

    def test_stores_the_number_read(self):
        tol = Tolerances(residual_tol="1e-6", eig_zero_band=np.float32(0.5))
        assert type(tol.residual_tol) is float and tol.residual_tol == 1e-6
        assert type(tol.eig_zero_band) is float and tol.eig_zero_band == 0.5


class TestReaders:
    @pytest.mark.parametrize("value", [2, 1.5, "2.5", " -3e2 ", "1_000", "nan", "-inf", True, np.float32(0.25), np.int64(7)])
    def test_number_accepts_what_float_accepts(self, value):
        got = read_number(value, "x")
        assert type(got) is float
        assert got == float(value) or (np.isnan(got) and np.isnan(float(value)))

    @pytest.mark.parametrize("value", [None, "abc", "", [1.0], {"re": 1.0}, 1j, 10**400])
    def test_number_refuses_what_float_refuses(self, value):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            float(value)
        with pytest.raises(ValueError, match=f"^{re.escape(f'the field must be a number, got {value!r}')}$"):
            read_number(value, "the field")

    def test_matrix_is_a_float_array(self):
        m = read_matrix([[1, 2], ["3", 4.5]], "m")
        assert m.dtype == float and np.array_equal(m, [[1.0, 2.0], [3.0, 4.5]])
        given = np.eye(4)
        assert read_matrix(given, "m") is given  # no copy of an array that already fits
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero imaginary part is dropped without a ComplexWarning
            m = read_matrix(np.array([[1.5, -2.0], [3.0, 4.0]]) + 0j, "m")
        assert m.dtype == float and np.array_equal(m, [[1.5, -2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "the field must be a numeric matrix: could not convert string to float: 'abc'"),
            ({"a": 1}, "the field must be a numeric matrix: float() argument must be a string or a real number, not 'dict'"),
            ([[10**400, 0], [0, 1]], "the field must be a numeric matrix: int too large to convert to float"),
            (None, "the field must be square, got shape ()"),
            ([1.0, 2.0], "the field must be square, got shape (2,)"),
            ([[1.0, 2.0]], "the field must be square, got shape (1, 2)"),
            (np.zeros((2, 2, 2)), "the field must be square, got shape (2, 2, 2)"),
            (np.eye(3), "the field must be 2n x 2n with n >= 1, got shape (3, 3)"),
            (np.zeros((0, 0)), "the field must be 2n x 2n with n >= 1, got shape (0, 0)"),
            (np.diag([2.0, 2.0]) + 5j * np.array([[0, 1], [-1, 0]]), "the field must be real, got a nonzero imaginary part"),
            ([[1.0, 1e-300j], [0.0, 1.0]], "the field must be real, got a nonzero imaginary part"),
        ],
    )
    def test_matrix_refusals_name_the_field(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_matrix(value, "the field")


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: stability_check(EMPTY), "drift matrix"),
        (lambda: solve(EMPTY, EMPTY), "source"),
        (lambda: state_criterion(EMPTY, Uncertainty()), "covariance matrix"),
        (lambda: williamson_decompose(EMPTY), "matrix"),
        (lambda: physical_spectrum(EMPTY), "target covariance matrix"),
        (lambda: QuadraticHamiltonian(EMPTY), "hessian"),
        (lambda: realize_lindblad(EMPTY, EMPTY), "drift matrix"),
        (lambda: residual(EMPTY, EMPTY, EMPTY), "source"),
    ],
    ids=["stability_check", "solve", "state_criterion", "williamson_decompose", "physical_spectrum",
         "QuadraticHamiltonian", "realize_lindblad", "residual"],
)
def test_empty_matrix_refused_by_name(call, what):
    with pytest.raises(ValueError, match=f"^{what} (must be 2n x 2n with n >= 1|is empty), got shape \\(0, 0\\)$"):
        call()


COMPLEX = np.diag([2.0, 2.0]) + 1j * np.array([[0.0, 5.0], [-5.0, 0.0]])
I2, HALF = np.eye(2), -0.5 * np.eye(2)  # the pair (-I/2, I) is stationary at I


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: state_criterion(COMPLEX, Classicality()), "covariance matrix"),
        (lambda: williamson_decompose(COMPLEX), "matrix"),
        (lambda: QuadraticHamiltonian(I2 * (1 + 1j)), "hessian"),
        (lambda: QuadraticHamiltonian(I2, np.array([1, 1j])), "linear term xi"),
        (lambda: QuadraticHamiltonian(I2, [1, 1j]), "linear term xi"),
        (lambda: realize_lindblad(HALF, I2 + 1j * np.array([[0.0, 3.0], [-3.0, 0.0]])), "diffusion"),
        (lambda: transform_triple(HALF, I2, (1 + 0.5j) * I2), "w"),
        (lambda: engineer_gibbs_target((1 + 1j) * I2, 1.0), "transform"),
        (lambda: engineer_covariant_target(I2, HALF, I2, (1 + 1j) * I2), "transform"),
        (lambda: engineer_covariant_target(COMPLEX, HALF, I2, I2), "base_cm"),
        (lambda: engineer_covariant_target(I2, HALF * (1 + 1j), I2, I2), "base_drift"),
        (lambda: engineer_covariant_target(I2, HALF, COMPLEX, I2), "base_diffusion"),
    ],
    ids=["state_criterion", "williamson_decompose", "QuadraticHamiltonian", "linear-array", "linear-list",
         "realize_lindblad", "transform_triple", "engineer_gibbs_target",
         "engineer_covariant_target", "base_cm", "base_drift", "base_diffusion"],
)
def test_complex_matrix_refused_by_name(call, what):
    """A nonzero imaginary part is refused, not dropped with a ComplexWarning."""
    with pytest.raises(ValueError, match=f"^{what} must be real, got a nonzero imaginary part$"):
        call()


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: QuadraticHamiltonian(I2, ["a", "b"]), "linear term xi"),
        (lambda: realize_lindblad(HALF, [["a", "b"], ["c", "d"]]), "diffusion"),
        (lambda: evolve(catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build(), ["a", "b"], I2, 1.0), "x0"),
        (lambda: transform_triple(I2, I2, [["a", 0], [0, 1]]), "w"),
    ],
    ids=["QuadraticHamiltonian", "realize_lindblad", "evolve", "transform_triple"],
)
def test_non_numeric_array_refused_by_name(call, what):
    with pytest.raises(ValueError, match=f"^{what} must be numeric: could not convert string to float: 'a'$"):
        call()


def opo_dynamics():
    return catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()


NAN_2 = np.array([[np.nan, 0.0], [0.0, 1.0]])


def dynamics_with(**changed):
    """GaussianDynamics of a one-mode damped pair, with the fields ``changed`` replaced."""
    arrays = dict(hessian=I2, drift_matrix=HALF, diffusion=I2, noise_gram=0.5 * I2.astype(complex),
                  mean_shift=np.zeros(2), drive=np.zeros(2))
    return GaussianDynamics(**{**arrays, **changed})


@pytest.mark.parametrize(
    "call, field, error",
    [
        pytest.param(lambda: evolve(opo_dynamics(), np.zeros(2), I2, "1"), "t_end", ValueError, id="evolve-t_end"),
        pytest.param(lambda: evolve(opo_dynamics(), np.zeros(2), I2, 1.0, dt="0.1"), "dt", ValueError,
                     id="evolve-dt"),
        pytest.param(lambda: solve_integral(HALF, I2, horizon="5"), "horizon", ValueError, id="solve_integral"),
        pytest.param(lambda: thermal_bath(1, 0, "1", 0.0), "bath rate", ValueError, id="thermal_bath"),
        pytest.param(lambda: QuadraticHamiltonian(I2, None, "x"), "offset h0", ValueError, id="offset-h0"),
        pytest.param(lambda: LindbladVector([1.0, 1j], "x"), "offset mu", ValueError, id="offset-mu"),
        pytest.param(lambda: LindbladVector(["a", "b"]), "coupling lambda", ValueError, id="coupling-text"),
        pytest.param(lambda: engineer_gibbs_target(squeeze_transform(0.3), "2"), "alpha", EngineeringError,
                     id="alpha-text"),
        pytest.param(lambda: engineer_gibbs_target(squeeze_transform(0.3), math.inf), "alpha", EngineeringError,
                     id="alpha-inf"),
        pytest.param(lambda: schur_form([["a"]]), "drift matrix", ValueError, id="schur_form-text"),
        pytest.param(lambda: schur_form(np.zeros(3)), "drift matrix", ValueError, id="schur_form-vector"),
        pytest.param(lambda: transform_triple(HALF, I2, NAN_2), "w", ValueError, id="transform_triple-nan"),
        pytest.param(lambda: transform_triple(HALF, I2, np.ones((3, 2))), "w", ValueError,
                     id="transform_triple-3x2"),
        pytest.param(lambda: transform_triple(HALF, I2, np.zeros((2, 2))), "w", ValueError,
                     id="transform_triple-singular"),
        pytest.param(lambda: squeeze_transform(math.nan), "squeezing r", ValueError, id="squeeze_transform"),
        pytest.param(lambda: xi_matrix(Classicality(), 0), "mode count", ValueError, id="xi_matrix"),
        pytest.param(lambda: QuadraticHamiltonian(I2, None, np.complex128(1 + 2j)), "offset h0", ValueError,
                     id="offset-h0-complex"),
        pytest.param(lambda: evolve(opo_dynamics(), np.zeros(2), I2, np.complex128(5 + 1j)), "t_end", ValueError,
                     id="evolve-t_end-complex"),
        pytest.param(lambda: dynamics_with(drift_matrix=[["a", 0], [0, 1]]), "drift_matrix", ValueError,
                     id="GaussianDynamics-text"),
        pytest.param(lambda: dynamics_with(mean_shift=np.zeros(5)), "mean_shift", ValueError,
                     id="GaussianDynamics-length"),
        pytest.param(lambda: dynamics_with(hessian=np.eye(4)), "drift_matrix", ValueError,
                     id="GaussianDynamics-size"),
        pytest.param(lambda: transform_triple(NAN_2, I2, I2), "gamma", ValueError, id="transform_triple-gamma"),
        pytest.param(lambda: engineer_covariant_target(np.eye(3), HALF, I2, I2), "base_cm", ValueError,
                     id="engineer_covariant_target-size"),
        pytest.param(lambda: residual(HALF, [["a", 0], [0, 1]], I2), "candidate solution", ValueError,
                     id="residual-text"),
        pytest.param(lambda: residual(HALF, NAN_2, I2), "candidate solution", ValueError, id="residual-nan"),
        pytest.param(lambda: residual(HALF, np.eye(3), I2), "candidate solution", ValueError, id="residual-3x3"),
        pytest.param(lambda: evolve(opo_dynamics(), np.zeros(2), [[1, 5], [0, 1]], 1.0), "v0", ValueError,
                     id="evolve-v0-asymmetric"),
        pytest.param(lambda: evolve(opo_dynamics(), np.zeros(2), [[1, 1e308], [-1e308, 1]], 1.0), "v0", ValueError,
                     id="evolve-v0-asymmetric-huge"),
        pytest.param(lambda: state_criterion(I2, "classicality"), "kind", ValueError, id="state_criterion-kind-text"),
        pytest.param(lambda: state_criterion(I2, [1]), "kind", ValueError, id="state_criterion-kind-list"),
        pytest.param(lambda: environment_criterion(opo_dynamics(), "classicality"), "kind", ValueError,
                     id="environment_criterion-kind-text"),
        pytest.param(lambda: xi_matrix([1], 1), "kind", ValueError, id="xi_matrix-kind-list"),
    ],
)
def test_boundary_refuses_by_name_without_a_warning(call, field, error):
    """Bad input to each public function is refused at the boundary: a ValueError (for alpha, an
    EngineeringError) whose message starts with the field, not a TypeError, a LinAlgError, a warning or
    a NaN or empty result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as refusal:
            call()
    assert caught == []
    assert str(refusal.value).startswith(f"{field} ")


CONTRACT_PHRASES = (
    "is not finite", "must be square", "must be finite", "must be numeric", "must be a number", "must be real",
    "must be nonnegative", "must be >= 0", "must have shape", "must have length",
)
# two bound checks keep the wording that their tests pin, each in the one place that reads the value:
# resolve_params names a rate or occupation, and cmd_evolve the --v0-scale flag
PINNED_OUTSIDE_CORE = [("catalog.py", "must be >= 0"), ("cli.py", "must be nonnegative")]


def contract_refusals(tree: ast.Module):
    """(line, phrase) of each raise statement whose text holds a refusal phrase of the input contract."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(c.value for c in ast.walk(node.exc)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            yield from ((node.lineno, phrase) for phrase in CONTRACT_PHRASES if phrase in text)


def test_the_input_contract_is_refused_in_core_alone():
    """The readers of lindlyap.core are the one home of the contract's refusals, so it cannot fork again."""
    src = Path(lindlyap.__file__).parent
    found = [(path.name, line, phrase) for path in sorted(src.glob("*.py")) if path.name != "core.py"
             for line, phrase in contract_refusals(ast.parse(path.read_text()))]
    assert [(name, phrase) for name, _, phrase in found] == PINNED_OUTSIDE_CORE, found
    assert any(contract_refusals(ast.parse((src / "core.py").read_text())))  # the scan sees core's own refusals


def test_every_name_in_a_module_all_exists():
    """Every name in the __all__ of a public module is defined there, so a name deleted from a module
    cannot stay listed, where ``from lindlyap.<module> import *`` would fail on it."""
    names = [m.name for m in pkgutil.iter_modules(lindlyap.__path__) if not m.name.startswith("_")]
    modules = [importlib.import_module(f"lindlyap.{name}") for name in names]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == ["lindlyap.cli"]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which it does not define"


def test_package_exports_are_in_their_modules_all():
    """Every name the package imports from a module is in that module's __all__, so a name deleted
    from a module cannot stay exported."""
    tree = ast.parse(inspect.getsource(lindlyap))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"lindlyap.{node.module}")
        missing = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not missing, f"lindlyap.{node.module}.__all__ lacks {missing}"


class TestSharedSymplecticForm:
    def test_one_array_per_size(self):
        assert symplectic_form(3) is symplectic_form(3)
        assert symplectic_form(3) is not symplectic_form(4)

    def test_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            symplectic_form(2)[0, 2] = 5.0
        assert symplectic_form(2)[0, 2] == 1.0

    def test_cache_is_bounded(self):
        for n in range(1, 200):
            symplectic_form(n)
        info = symplectic_form.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


NAN = float("nan")
INF = float("inf")


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "m",
        [
            [[1.0, NAN], [NAN, 1.0]],
            [[NAN, 0.0], [0.0, 1.0]],
            [[1.0, INF], [0.0, 1.0]],
            [[0.0, INF], [-INF, 0.0]],
            [[INF, 0.0], [0.0, 1.0]],
            [[1.0, complex(0.0, NAN)], [0.0, 1.0]],
        ],
    )
    def test_check_hermitian(self, m):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^covariance matrix is not finite"):
                check_hermitian(np.array(m), what="covariance matrix")
            with pytest.raises(ValueError, match="not finite"):
                check_hermitian(np.array(m), Tolerances(residual_tol=0.0))

    def test_finite_extremes_accepted(self):
        big = np.array([[1e300, -1e300], [-1e300, 1e300]])
        assert np.array_equal(check_hermitian(big), big)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))  # the deviation overflows


def check_hermitian_without_gate(m, tol=DEFAULT_TOL, what="matrix"):
    """check_hermitian as it runs on every matrix but for its exact-Hermitian fast gate: the
    deviation judged relative to max|m|, floored only at the smallest normal float."""
    dev = np.abs(m - m.conj().T).max()
    scale = np.abs(m).max()
    bound = tol.residual_tol * max(scale, np.finfo(float).tiny)
    if not (dev <= bound < math.inf) and not np.isfinite(m).all():
        raise ValueError(f"{what} is not finite: it has a NaN or infinite entry")
    if not (dev <= bound):
        raise ValueError(
            f"{what} is not Hermitian (symmetric if real): ||m - m^dag||_inf = {dev:.3e} "
            f"exceeds {tol.residual_tol:.1e} * {scale:.3e}"
        )
    return hermitian_part(m)


TINY = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]


@st.composite
def near_hermitian(draw):
    """A real or complex matrix at a scale from 1e-300 to 1e300 that is exactly Hermitian, one ulp
    off, or far off, with subnormal and signed-zero entries placed in mirrored pairs."""
    k = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.integers(-300, 300))
    b = draw(hnp.arrays(float, (k, k), elements=st.floats(-1.0, 1.0)))
    m = scale * (b + b.T)
    if draw(st.booleans()):
        c = draw(hnp.arrays(float, (k, k), elements=st.floats(-1.0, 1.0)))
        m = m + 1j * (scale * (c - c.T))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        v = draw(st.sampled_from(TINY))
        m[i, j] = v
        m[j, i] = -v if v == 0 and draw(st.booleans()) else v  # a zero may meet its mirror with the other sign
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    off = draw(st.sampled_from(["exact", "ulp", "far"]))
    if off == "ulp" and np.iscomplexobj(m):
        z = complex(m[i, j])
        if i == j:
            m[i, j] = complex(z.real, np.nextafter(z.imag, np.inf))
        else:
            m[i, j] = complex(np.nextafter(z.real, np.inf), z.imag)
    elif off == "ulp":
        m[i, j] = np.nextafter(m[i, j], np.inf)
    elif off == "far" and i != j:
        m[i, j] += 1e-6 * np.abs(m).max()
    return m


class TestExactHermitianGate:
    """check_hermitian returns an exactly Hermitian, finite matrix's copy without measuring it; every
    result and every refusal is bit for bit that of the measured path."""

    @settings(max_examples=300)
    @given(near_hermitian())
    def test_same_result_as_the_measured_path(self, m):
        try:
            want = check_hermitian_without_gate(m)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                check_hermitian(m)
            assert str(got.value) == str(exc)
            return
        out = check_hermitian(m)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()  # bit for bit, signed zeros and subnormals included
        assert not np.shares_memory(out, m)

    def test_an_integer_matrix_comes_back_as_floats(self):
        m = np.array([[2, 1], [1, 3]])
        out = check_hermitian(m)
        assert out.dtype == check_hermitian_without_gate(m).dtype == np.float64
        assert np.array_equal(out, m)

    def test_an_empty_matrix_is_still_refused(self):
        for check in (check_hermitian_without_gate, check_hermitian):
            with pytest.raises(ValueError):
                check(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "m",
        [
            [[INF, 0.5], [0.5, 1.0]],
            [[1.0, 0.5], [0.5, -INF]],
            [[complex(-INF, 0.0), 0.5j], [-0.5j, 1.0]],
            [[NAN, 0.5], [0.5, 1.0]],
            [[1.0, NAN], [NAN, 1.0]],
        ],
        ids=["+inf", "-inf", "complex -inf", "nan diagonal", "nan pair"],
    )
    def test_non_finite_symmetric_matrix_refused(self, m):
        m = np.array(m)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as want:
                check_hermitian_without_gate(m, what="covariance matrix")
            with pytest.raises(ValueError, match="^covariance matrix is not finite") as got:
                check_hermitian(m, what="covariance matrix")
        assert str(got.value) == str(want.value)
