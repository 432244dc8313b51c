import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import lindlyap.model
from lindlyap import (
    GaussianDynamics,
    LindbladVector,
    ModelSpec,
    QuadraticHamiltonian,
    Tolerances,
    UnstableDriftError,
    build_dynamics,
    catalog_build,
    realize_lindblad,
    stability_check,
    symplectic_form,
    thermal_bath,
)
from lindlyap.model import SchurForm, require_stable, schur_form

from conftest import random_stable_model


def two_mode_thermal(omega1, omega2, kappa, zeta1, zeta2, nbar1, nbar2):
    hq = np.array([[omega1 + kappa / 2, -kappa / 2], [-kappa / 2, omega2 + kappa / 2]])
    hp = np.diag([omega1, omega2])
    h = np.block([[hq, np.zeros((2, 2))], [np.zeros((2, 2)), hp]])
    vectors = thermal_bath(2, 0, zeta1, nbar1) + thermal_bath(2, 1, zeta2, nbar2)
    return build_dynamics(QuadraticHamiltonian(h), vectors)


class TestBuildDynamics:
    def test_two_mode_thermal_matrices(self):
        """Drift and diffusion of two position-coupled damped oscillators."""
        dyn = two_mode_thermal(0.5, 0.7, 1.1, 0.3, 0.4, 0.8, 0.2)
        gamma = np.array(
            [
                [-0.15, 0.0, 0.5, 0.0],
                [0.0, -0.2, 0.0, 0.7],
                [-1.05, 0.55, -0.15, 0.0],
                [0.55, -1.25, 0.0, -0.2],
            ]
        )
        assert np.allclose(dyn.drift_matrix, gamma, atol=1e-14)
        assert np.allclose(dyn.diffusion, np.diag([0.78, 0.56, 0.78, 0.56]), atol=1e-14)
        assert np.allclose(dyn.mean_shift, 0.0)
        assert np.allclose(dyn.drive, 0.0)

    def test_single_mode_squeezing_matrices(self):
        h = np.array([[0.0, 0.15], [0.15, 0.0]])
        lam = np.sqrt(0.5) * np.array([1j, -1.0])
        dyn = build_dynamics(QuadraticHamiltonian(h), [LindbladVector(lam)])
        assert np.allclose(dyn.drift_matrix, np.diag([-0.35, -0.65]), atol=1e-15)
        assert np.allclose(dyn.diffusion, np.eye(2), atol=1e-15)
        upsilon = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        assert np.allclose(dyn.noise_gram, upsilon, atol=1e-15)

    def test_drift_identity(self):
        """Gamma = J H - Im(Upsilon) J for random models."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(2 * n, 2 * n))
            h = 0.5 * (h + h.T)
            vectors = [
                LindbladVector(rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
                for _ in range(int(rng.integers(1, 4)))
            ]
            dyn = build_dynamics(QuadraticHamiltonian(h), vectors)
            j = symplectic_form(n)
            gram = sum(np.outer(v.coupling, v.coupling.conj()) for v in vectors)
            assert np.allclose(dyn.drift_matrix, j @ h - gram.imag @ j, atol=1e-12)
            assert np.allclose(dyn.diffusion, 2.0 * gram.real, atol=1e-12)
            # the Hamiltonian part is traceless, so the trace is purely dissipative
            assert np.trace(dyn.drift_matrix) == pytest.approx(
                -np.trace(gram.imag @ j), abs=1e-12
            )

    def test_mean_shift_and_drive(self):
        lam = np.array([1.0 + 2.0j, 0.5 - 1.0j])
        mu = 0.3 - 0.7j
        xi = np.array([0.2, -0.4])
        dyn = build_dynamics(
            QuadraticHamiltonian(np.zeros((2, 2)), linear=xi),
            [LindbladVector(lam, offset=mu)],
        )
        eta = (np.conj(mu) * lam).imag
        assert np.allclose(dyn.mean_shift, eta, atol=1e-15)
        assert np.allclose(dyn.drive, xi - eta, atol=1e-15)

    def test_closed_dynamics(self):
        """Without any dissipator the flow is purely Hamiltonian and marginal."""
        h = np.diag([1.0, 1.0])
        dyn = build_dynamics(QuadraticHamiltonian(h))
        assert np.allclose(dyn.drift_matrix, symplectic_form(1) @ h)
        assert not dyn.diffusion.any()
        report = stability_check(dyn)
        assert not report.is_stable
        assert report.spectral_abscissa == pytest.approx(0.0, abs=1e-12)

    def test_hessian_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_coupling_length_must_match(self):
        with pytest.raises(ValueError):
            build_dynamics(QuadraticHamiltonian(np.zeros((4, 4))), [LindbladVector(np.ones(2))])


class TestStability:
    def test_cascaded_spectrum(self):
        dyn = catalog_build(
            "CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)
        ).build()
        report = stability_check(dyn)
        assert report.is_stable
        assert report.spectral_abscissa == pytest.approx(-0.35, abs=1e-12)
        assert np.allclose(np.sort(report.spectrum.real), [-0.65, -0.6, -0.4, -0.35], atol=1e-12)

    def test_above_threshold_unstable(self):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()
        report = stability_check(dyn)
        assert not report.is_stable
        assert report.spectral_abscissa == pytest.approx(0.1, abs=1e-12)

    def test_raw_matrix_input(self):
        report = stability_check(np.array([[-1.0, 10.0], [0.0, -2.0]]))
        assert report.is_stable
        assert report.spectral_abscissa == pytest.approx(-1.0)

    def test_margin_counts_zero_as_unstable(self):
        dyn = catalog_build("OPO", dict(epsilon=1.0, kappa=1.0)).build()
        assert not stability_check(dyn).is_stable

    def test_model_arrays_are_read_only_copies(self):
        drift = np.diag([-1.0, -2.0])
        dyn = GaussianDynamics(np.eye(2), drift, np.eye(2), np.eye(2, dtype=complex), np.zeros(2), np.zeros(2))
        drift[0, 0] = 5.0
        assert dyn.drift_matrix[0, 0] == -1.0
        with pytest.raises(ValueError, match="read-only"):
            dyn.drift_matrix[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            stability_check(dyn).spectrum[0] = 5.0
        assert stability_check(dyn).spectral_abscissa == -1.0

    def test_cached_spectrum_verdict_follows_tolerance(self):
        """The margin is stability_margin times the drift's size max|Gamma|, here 0.65."""
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()  # abscissa -0.35
        size = np.abs(dyn.drift_matrix).max()
        assert size == dyn.drift_schur.size == pytest.approx(0.65)
        assert stability_check(dyn).is_stable
        for margin, stable in ((0.36, False), (0.34, True)):
            report = stability_check(dyn, Tolerances(stability_margin=margin / size))
            assert report.is_stable is stable and report.is_marginal is not stable
            assert report.margin == pytest.approx(margin)


class TestUnstableDriftError:
    @pytest.mark.parametrize("epsilon, abscissa", [(1.2, 0.1), (1.0, 0.0)])
    def test_carries_the_abscissa_and_margin(self, epsilon, abscissa):
        dyn = catalog_build("OPO", dict(epsilon=epsilon, kappa=1.0)).build()
        tol = Tolerances(stability_margin=1e-6)
        with pytest.raises(UnstableDriftError) as info:
            require_stable(dyn, "mean fixed point", tol)
        exc = info.value
        assert isinstance(exc, ValueError)
        assert exc.abscissa == stability_check(dyn).spectral_abscissa == pytest.approx(abscissa, abs=1e-12)
        assert exc.margin == 1e-6 * np.abs(dyn.drift_matrix).max()
        assert str(exc) == f"mean fixed point needs an asymptotically stable drift matrix (spectral abscissa {exc.abscissa:.6e})"

    def test_stable_model_gets_its_report(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        assert require_stable(dyn, "anything") == stability_check(dyn)


class TestRealizeLindblad:
    @pytest.mark.parametrize(
        "cid, params",
        [
            ("OPO", dict(epsilon=0.3, kappa=1.0)),
            ("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)),
            ("OPOThermal", dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)),
        ],
    )
    def test_roundtrip(self, cid, params):
        """Recovering a Hamiltonian and coupling vectors from (Gamma, D)."""
        dyn = catalog_build(cid, params).build()
        real = realize_lindblad(dyn.drift_matrix, dyn.diffusion)
        rebuilt = real.spec.build()
        assert np.allclose(rebuilt.drift_matrix, dyn.drift_matrix, atol=1e-10)
        assert np.allclose(rebuilt.diffusion, dyn.diffusion, atol=1e-10)
        hess = real.hamiltonian.hessian
        assert np.allclose(hess, hess.T, atol=1e-12)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(2 * n, 2 * n))
            h = 0.5 * (h + h.T)
            vectors = [
                LindbladVector(rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
                for _ in range(2 * n)
            ]
            dyn = build_dynamics(QuadraticHamiltonian(h), vectors)
            real = realize_lindblad(dyn.drift_matrix, dyn.diffusion)
            rebuilt = real.spec.build()
            assert np.allclose(rebuilt.drift_matrix, dyn.drift_matrix, atol=1e-9)
            assert np.allclose(rebuilt.diffusion, dyn.diffusion, atol=1e-9)
            assert np.allclose(real.hamiltonian.hessian, h, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_realization_rebuilds_a_random_stable_pair(self, n, seed):
        """realize_lindblad composed with build_dynamics is the identity on a model's pair."""
        dyn = random_stable_model(np.random.default_rng(seed), n)
        real = realize_lindblad(dyn.drift_matrix, dyn.diffusion)
        rebuilt = build_dynamics(real.hamiltonian, real.vectors)
        scale = max(np.abs(dyn.drift_matrix).max(), np.abs(dyn.diffusion).max())
        assert np.abs(rebuilt.drift_matrix - dyn.drift_matrix).max() <= 1e-12 * scale
        assert np.abs(rebuilt.diffusion - dyn.diffusion).max() <= 1e-12 * scale
        assert np.abs(real.hamiltonian.hessian - dyn.hessian).max() <= 1e-12 * scale

    def test_unrealizable_pair_rejected(self):
        """Pure damping with no diffusion violates the noise positivity constraint."""
        with pytest.raises(ValueError, match="not realizable"):
            realize_lindblad(-np.eye(2), np.zeros((2, 2)))

    def test_round_trip_miss_refused(self, monkeypatch):
        """realize_lindblad rebuilds the pair by the arithmetic build_dynamics uses, one helper for
        both, and refuses a rebuilt pair beyond its bound."""
        params = dict(epsilon=0.05, kappa=0.8, zeta=1.5, nbar=0.3)
        dyn = catalog_build("OPOThermal", params).build()
        moment_pair = lindlyap.model._moment_pair

        def perturbed(hessian, couplings, tol):
            # the rebuilt Gram matrix is off by a relative 2e-6, far beyond residual_tol
            return moment_pair(hessian, couplings * (1 + 1e-6), tol)

        monkeypatch.setattr(lindlyap.model, "_moment_pair", perturbed)
        with pytest.raises(ValueError, match="^realization failed to reproduce the pair, deviation"):
            realize_lindblad(dyn.drift_matrix, dyn.diffusion)
        assert not np.array_equal(catalog_build("OPOThermal", params).build().diffusion, dyn.diffusion)


class TestFiniteModelData:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: QuadraticHamiltonian([[1.0, np.nan], [np.nan, 1.0]]), "hessian"),
            (lambda: QuadraticHamiltonian([[np.inf, 0.0], [0.0, 1.0]]), "hessian"),
            (lambda: QuadraticHamiltonian(np.eye(2), [0.0, np.nan]), "linear term xi"),
            (lambda: QuadraticHamiltonian(np.eye(2), None, np.inf), "offset h0"),
            (lambda: LindbladVector([1.0, np.inf]), "coupling lambda"),
            (lambda: LindbladVector([1.0, complex(0.0, np.nan)]), "coupling lambda"),
            (lambda: LindbladVector([1.0, 1j], complex(np.nan, 0.0)), "offset mu"),
        ],
    )
    def test_non_finite_entries_refused(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} is not finite"):
            build()


class TestFiniteDrift:
    NAN_DRIFT = np.array([[-1.0, np.nan], [0.0, -1.0]])

    @pytest.mark.parametrize(
        "field", ["hessian", "drift_matrix", "diffusion", "noise_gram", "mean_shift", "drive"]
    )
    def test_dynamics_fields(self, field):
        arrays = dict(
            hessian=np.eye(2),
            drift_matrix=-np.eye(2),
            diffusion=np.eye(2),
            noise_gram=0.5 * np.eye(2, dtype=complex),
            mean_shift=np.zeros(2),
            drive=np.zeros(2),
        )
        arrays[field] = np.full_like(arrays[field], np.inf)
        with pytest.raises(ValueError, match=f"^{field} is not finite"):
            GaussianDynamics(**arrays)

    def test_bare_stability_check(self):
        with pytest.raises(ValueError, match="^drift matrix is not finite"):
            stability_check(self.NAN_DRIFT)

    def test_realize_lindblad_names_the_drift(self):
        with pytest.raises(ValueError, match="^drift matrix is not finite"):
            realize_lindblad(self.NAN_DRIFT, np.eye(2))


def outer_loop_gram(n, lindblad):
    """(noise Gram matrix, mean shift) summed one jump operator at a time, as build_dynamics once did."""
    gram = np.zeros((2 * n, 2 * n), dtype=complex)
    shift = np.zeros(2 * n)
    for v in lindblad:
        gram += np.outer(v.coupling, v.coupling.conj())
        shift += (np.conj(v.offset) * v.coupling).imag
    return gram, shift


class TestGramAssembly:
    @pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (2, 4), (3, 7), (5, 2)])
    def test_matches_the_outer_product_loop(self, n, count):
        rng = np.random.default_rng(10 * n + count)
        h = rng.normal(size=(2 * n, 2 * n))
        vectors = [
            LindbladVector(
                rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n),
                complex(rng.normal(), rng.normal()),
            )
            for _ in range(count)
        ]
        dyn = build_dynamics(QuadraticHamiltonian(h + h.T, rng.normal(size=2 * n)), vectors)
        gram, shift = outer_loop_gram(n, vectors)
        gram = 0.5 * (gram + gram.conj().T)
        assert np.abs(dyn.noise_gram - gram).max() <= 1e-15 * np.abs(gram).max()
        assert np.abs(dyn.mean_shift - shift).max() <= 1e-15 * np.abs(shift).max()
        j = symplectic_form(n)
        drift = j @ dyn.hessian - gram.imag @ j
        assert np.abs(dyn.drift_matrix - drift).max() <= 1e-15 * np.abs(drift).max()
        assert np.abs(dyn.diffusion - 2.0 * gram.real).max() <= 1e-15 * np.abs(gram).max()
        assert np.array_equal(dyn.noise_gram, dyn.noise_gram.conj().T)

    def test_no_jump_operators_give_zero_matrices(self):
        dyn = build_dynamics(QuadraticHamiltonian(np.eye(4)), [])
        for arr, shape in [(dyn.noise_gram, (4, 4)), (dyn.diffusion, (4, 4)), (dyn.mean_shift, (4,))]:
            assert arr.shape == shape and not arr.any()
        assert np.array_equal(dyn.drift_matrix, symplectic_form(2))

    def test_complex_offsets_shift_the_mean(self):
        lam = np.array([0.5j, -0.5])
        vectors = [LindbladVector(lam, 0.3 - 0.4j), LindbladVector(2.0 * lam, 1.5j)]
        dyn = build_dynamics(QuadraticHamiltonian(np.eye(2)), vectors)
        # Im(conj(mu) lambda) summed: (0.3 + 0.4i) lam + (-1.5i) 2 lam
        assert np.allclose(dyn.mean_shift, ((0.3 + 0.4j) * lam - 3j * lam).imag, rtol=0, atol=1e-16)
        assert np.allclose(dyn.drive, -dyn.mean_shift, rtol=0, atol=1e-16)

    @pytest.mark.parametrize(
        "build",
        [build_dynamics, lambda ham, vectors: ModelSpec(ham, vectors).build()],
        ids=["build_dynamics", "ModelSpec.build"],
    )
    def test_mode_mismatch_names_both_counts(self, build):
        vectors = [LindbladVector(np.ones(4)), LindbladVector(np.ones(2))]
        with pytest.raises(ValueError, match="^coupling vector has 1 modes, Hamiltonian has 2$"):
            build(QuadraticHamiltonian(np.eye(4)), vectors)


EIGENVALUES = (-2.5, -1.0, -0.5, -0.125, 0.0, 0.25, 1.0, 3.0)  # drawn with repeats
FREQUENCIES = (0.5, 1.0, 2.0)


def rotation_block(a, w):
    return np.array([[a, w], [-w, a]])


@st.composite
def real_drifts(draw):
    """A real 2n x 2n matrix, n <= 8, whose eigenvalues are exact up to rounding of O(eps |matrix|).

    "normal": Q B Q^T with Q orthogonal and B block diagonal, its 1 x 1
    entries and 2 x 2 rotation blocks drawn with repeats; a normal matrix's
    eigenvalues stay well conditioned even when repeated.  "jordan": B plus a
    random coupling above its diagonal blocks, left quasi-triangular, so that
    repeated eigenvalues form Jordan chains and neither eigensolver rounds
    them apart.  "dense": a Gaussian matrix, generally non-normal.
    """
    dim = 2 * draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("normal", "jordan", "dense")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-6, 1.0, 1e3)))
    if kind == "dense":
        return scale * rng.normal(size=(dim, dim))
    b = np.zeros((dim, dim))
    k = 0
    while k < dim:
        a = draw(st.sampled_from(EIGENVALUES))
        if k + 1 < dim and draw(st.booleans()):
            b[k : k + 2, k : k + 2] = rotation_block(a, draw(st.sampled_from(FREQUENCIES)))
            k += 2
        else:
            b[k, k] = a
            k += 1
    if kind == "normal":
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return scale * (q @ b @ q.T)
    coupling = np.triu(rng.normal(size=(dim, dim)), 1)
    coupling[np.abs(b) > 0] = 0.0  # keep each rotation block standardized, [[a, w], [-w, a]]
    return scale * (b + coupling)


def multiset_distance(x, y):
    """Largest distance between matched entries of two spectra, paired to minimise the total."""
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def rebuilt_spectrum(t):
    """The sorted eigenvalues of a Schur factor t, rebuilt from its diagonal: each standardized 2 x 2
    block [[a, b], [c, a]] of a real form holds the pair a +- i sqrt(-b c).  The spectrum was read
    this way before it was taken from ``gees``'s own output, which must give the same bits."""
    eig = np.diag(t)
    k = np.flatnonzero(np.diag(t, -1))  # the first row of each 2 x 2 block; a complex t has none
    if k.size:
        # b c < 0 in a standardized block; |b|^(1/2) |c|^(1/2) neither goes negative nor overflows
        im = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
        eig = eig.astype(complex)
        eig[k] += 1j * im
        eig[k + 1] -= 1j * im
    return eig[np.lexsort((eig.imag, eig.real))]


def reference_matrices():
    rng = np.random.default_rng(32)
    for n in (2, 3, 5, 8, 13, 24):
        g = rng.standard_normal((n, n))
        yield pytest.param(g, id=f"real-{n}")
        yield pytest.param(g + g.T, id=f"symmetric-{n}")
        # integer entries, every eigenvalue twice
        yield pytest.param(np.kron(np.eye(2), np.round(2 * g)), id=f"integer-repeated-{2 * n}")
        yield pytest.param(np.round(g) - np.round(g).T, id=f"integer-skew-{n}")
        yield pytest.param(g + 1j * rng.standard_normal((n, n)), id=f"complex-{n}")
    yield pytest.param(np.array([[-0.5]]), id="1x1")
    yield pytest.param(np.zeros((4, 4)), id="zero")
    yield pytest.param(np.array([[0.0, 1.0], [-1.0, 0.0]]), id="rotation")
    yield pytest.param(np.array([[-0.0, 1.0], [-1.0, -0.0]]), id="rotation-signed-zero")
    # gees returns the real eigenvalue -0.0 beside a conjugate pair
    yield pytest.param(np.array([[-2.0, -1, -2, -1], [-1, -0.0, 0, -1], [0, 0, -0.0, -0.0], [-2, 1, -1, 1]]),
                       id="signed-zero-beside-a-pair")


class TestSchurForm:
    @pytest.mark.parametrize("matrix", reference_matrices())
    def test_spectrum_is_the_rebuilt_one_bit_for_bit(self, matrix):
        form = schur_form(matrix)
        want = rebuilt_spectrum(form.t)
        assert form.spectrum.dtype == want.dtype
        assert np.array_equal(form.spectrum, want)
        assert form.spectrum.tobytes() == want.tobytes()  # signed zeros too, which the CLI prints

    def test_model_form_keeps_the_models_drift(self):
        dyn = catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build()
        form = dyn.drift_schur
        assert form.matrix is dyn.drift_matrix
        assert not form.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form.matrix[0, 0] = 0.0
        assert form.spectrum.tobytes() == schur_form(dyn.drift_matrix).spectrum.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(real_drifts())
    def test_spectrum_matches_eigvals(self, gamma):
        form = schur_form(gamma)
        want = np.linalg.eigvals(gamma)
        assert multiset_distance(form.spectrum, want) <= 1e-13 * max(1.0, np.linalg.norm(gamma, 2))
        assert np.iscomplexobj(form.spectrum) == np.iscomplexobj(want)
        order = np.lexsort((form.spectrum.imag, form.spectrum.real))
        assert np.array_equal(order, np.arange(gamma.shape[0]))
        assert form.abscissa == form.spectrum.real.max()
        assert np.abs(form.u @ form.t @ form.u.T - gamma).max() <= 1e-13 * max(1.0, np.abs(gamma).max())

    def test_complex_matrix_gets_a_complex_form(self):
        gamma = np.array([[-1.0 + 1.0j, 2.0], [0.0, -3.0]])
        form = schur_form(gamma)
        assert np.iscomplexobj(form.t) and np.allclose(np.tril(form.t, -1), 0.0)
        assert np.allclose(form.spectrum, [-3.0, -1.0 + 1.0j], rtol=0, atol=1e-15)

    def test_record_is_read_only(self):
        drift = np.array([[-1.0, 2.0], [0.5, -3.0]])
        form = schur_form(drift)
        drift[0, 0] = 7.0
        assert form.matrix[0, 0] == -1.0
        for arr in (form.matrix, form.t, form.u, form.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_model_caches_one_form(self):
        dyn = catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build()
        assert isinstance(dyn.drift_schur, SchurForm)
        assert dyn.drift_schur is dyn.drift_schur
        assert stability_check(dyn).spectrum is dyn.drift_schur.spectrum
        assert stability_check(dyn.drift_schur).spectrum is dyn.drift_schur.spectrum

    def test_non_finite_matrix_refused(self):
        with pytest.raises(ValueError, match="^drift matrix is not finite"):
            schur_form(np.array([[-1.0, np.inf], [0.0, -1.0]]))
