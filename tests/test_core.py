import re
import warnings

import numpy as np
import pytest

from lindlyap import (
    Definiteness,
    InertiaIndex,
    Layout,
    Tolerances,
    inertia,
    psd_verdict,
    reorder,
    symplectic_form,
)
from lindlyap.core import check_hermitian, classify_spectrum, hermitian_part, read_matrix, read_number


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


class TestReorder:
    def test_vector_roundtrip(self):
        x = np.arange(6.0)  # (q1, q2, q3, p1, p2, p3)
        y = reorder(x, Layout.BLOCK_QP, Layout.INTERLEAVED_QP)
        assert np.array_equal(y, [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
        assert np.array_equal(reorder(y, Layout.INTERLEAVED_QP, Layout.BLOCK_QP), x)

    def test_matrix_congruence(self):
        """Reordering a matrix permutes rows and columns consistently."""
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6))
        mi = reorder(m, Layout.BLOCK_QP, Layout.INTERLEAVED_QP)
        assert np.allclose(np.sort(np.linalg.eigvals(mi)), np.sort(np.linalg.eigvals(m)))
        assert np.array_equal(reorder(mi, Layout.INTERLEAVED_QP, Layout.BLOCK_QP), m)

    def test_interleaved_form_is_block_diagonal(self):
        # J becomes a direct sum of 2x2 rotations in the interleaved layout
        j = reorder(symplectic_form(3), Layout.BLOCK_QP, Layout.INTERLEAVED_QP)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for k in range(3):
            assert np.array_equal(j[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], block)
        off = j.copy()
        for k in range(3):
            off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0.0
        assert not off.any()

    def test_same_layout_copies(self):
        m = np.eye(4)
        out = reorder(m, Layout.BLOCK_QP, Layout.BLOCK_QP)
        assert out is not m
        assert np.array_equal(out, m)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            reorder(np.zeros(3), Layout.BLOCK_QP, Layout.INTERLEAVED_QP)


class TestHermitianHelpers:
    def test_hermitian_part(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(hermitian_part(m), [[1.0, 1.0], [1.0, 3.0]])

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


class TestInertia:
    def test_counts(self):
        idx = inertia(np.diag([3.0, -1.0, 0.0, 2.0]))
        assert idx == InertiaIndex(positive=2, zero=1, negative=1)
        assert idx.total == 4

    def test_str_format(self):
        assert str(InertiaIndex(2, 1, 1)) == "(+2, 0:1, -1)"

    def test_zero_band_is_relative(self):
        """Tiny eigenvalues on a large-norm matrix fall inside the zero band."""
        idx = inertia(np.diag([1e9, 1e-3]))
        assert idx == InertiaIndex(positive=1, zero=1, negative=0)
        # the same small value next to order-one entries is a genuine eigenvalue
        idx = inertia(np.diag([1.0, 1e-3]))
        assert idx == InertiaIndex(positive=2, zero=0, negative=0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(3)
        m = np.diag([2.0, 1.0, 0.0, -1.5])
        for _ in range(5):
            s = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            assert abs(np.linalg.det(s)) > 1e-3
            assert inertia(s.T @ m @ s) == inertia(m)

    def test_complex_hermitian(self):
        j = symplectic_form(1)
        idx = inertia(1j * j)  # eigenvalues +1 and -1
        assert idx == InertiaIndex(positive=1, zero=0, negative=1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdVerdict:
    @pytest.mark.parametrize(
        "diag, expected",
        [
            ([1.0, 2.0], Definiteness.POSITIVE_DEFINITE),
            ([1.0, 0.0], Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL),
            ([1.0, -0.5], Definiteness.INDEFINITE),
        ],
    )
    def test_basic(self, diag, expected):
        assert psd_verdict(np.diag(diag)) is expected

    def test_band_controls_marginality(self):
        m = np.diag([1.0, 1e-12])
        assert psd_verdict(m) is Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL
        assert psd_verdict(m, Tolerances(eig_zero_band=1e-14)) is Definiteness.POSITIVE_DEFINITE


def three_sum_classification(eig, tol):
    """The counting rule classify_spectrum once used: one reduction per sign class."""
    band = tol.eig_zero_band * max(1.0, np.abs(eig).max() if eig.size else 0.0)
    idx = InertiaIndex(
        positive=int(np.sum(eig > band)),
        zero=int(np.sum(np.abs(eig) <= band)),
        negative=int(np.sum(eig < -band)),
    )
    if idx.negative > 0:
        return idx, Definiteness.INDEFINITE
    if idx.zero > 0:
        return idx, Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL
    return idx, Definiteness.POSITIVE_DEFINITE


class TestClassifySpectrum:
    @pytest.mark.parametrize("zero_band", [1e-9, 0.25, 0.0])
    def test_matches_the_three_sum_rule(self, zero_band):
        """Random spectra in any order, with entries at +-band and one ulp to either side of each."""
        tol = Tolerances(eig_zero_band=zero_band)
        rng = np.random.default_rng(int(1e3 * zero_band) + 17)
        for _ in range(300):
            top = float(rng.choice([0.5, 1.0, 7.0, 1e6]))
            band = tol.eig_zero_band * max(1.0, top)
            edges = [band, -band]
            edges += [np.nextafter(e, d) for e in (band, -band) for d in (np.inf, -np.inf)]
            pool = np.array([top, -top, 0.0, *edges, *rng.uniform(-top, top, 4)])
            eig = rng.choice(pool, size=int(rng.integers(1, 12)))
            eig[0] = rng.choice([top, -top])  # fixes max |eig|, so the band is the one above
            rng.shuffle(eig)
            assert classify_spectrum(eig, tol) == three_sum_classification(eig, tol)

    def test_empty_spectrum(self):
        assert classify_spectrum(np.array([])) == three_sum_classification(np.array([]), Tolerances())


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
            (np.eye(3), "the field must be 2n x 2n, got shape (3, 3)"),
        ],
    )
    def test_matrix_refusals_name_the_field(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_matrix(value, "the field")


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

    def test_verdicts_refuse_nan(self):
        m = np.array([[1.0, NAN], [NAN, 1.0]])
        for verdict in (psd_verdict, inertia):
            with pytest.raises(ValueError, match="not finite"):
                verdict(m)

    def test_finite_extremes_accepted(self):
        big = np.array([[1e300, -1e300], [-1e300, 1e300]])
        assert np.array_equal(check_hermitian(big), big)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))  # the deviation overflows
