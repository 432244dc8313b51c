import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindlyap.lyapunov
import lindlyap.model
from lindlyap import (
    LyapunovProblem,
    QuadraticHamiltonian,
    Tolerances,
    UnstableDriftError,
    build_dynamics,
    catalog_build,
    residual,
    solve,
    solve_integral,
    steady_covariance,
    stability_check,
    thermal_bath,
)
from lindlyap.lyapunov import _flow, _square
from lindlyap.model import schur_form


def random_stable_pair(rng, n, complex_gen=False):
    a = rng.normal(size=(n, n))
    if complex_gen:
        a = a + 1j * rng.normal(size=(n, n))
    # shift well into the left half-plane so integral-route horizons stay short
    a = a - (np.linalg.eigvals(a).real.max() + 2.0) * np.eye(n)
    b = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_gen else 0.0)
    q = b @ b.conj().T
    return a, q


def route_pair(rng, n, route):
    """A stable pair on one of the three `ROUTES`: complex entries where the route puts them."""
    a, q = random_stable_pair(rng, n, complex_gen=route == "complex generator")
    if route == "complex source":
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = b @ b.conj().T
    return a, q


class TestSolve:
    def test_scalar(self):
        assert solve(np.array([[-2.0]]), np.array([[4.0]])) == pytest.approx(np.array([[1.0]]))

    def test_diagonal_closed_form(self):
        # for diagonal A the solution is Q_ij / (-lambda_i - lambda_j)
        a = np.diag([-1.0, -2.0])
        q = np.array([[2.0, 1.0], [1.0, 4.0]])
        p = solve(a, q)
        assert np.allclose(p, [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]], atol=1e-14)

    def test_single_mode_squeezing_steady_state(self):
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        v = steady_covariance(dyn)
        assert np.allclose(v, np.diag([1.0 / 0.7, 1.0 / 1.3]), atol=1e-12)

    @pytest.mark.parametrize("complex_gen", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_scipy(self, n, complex_gen):
        """Independent cross-check against scipy's Lyapunov solver."""
        rng = np.random.default_rng(100 * n + complex_gen)
        a, q = random_stable_pair(rng, n, complex_gen)
        p = solve(a, q)
        p_ref = scipy.linalg.solve_continuous_lyapunov(a, -q)
        assert np.allclose(p, p_ref, atol=1e-10)
        assert residual(a, p, q) < 1e-10

    def test_real_input_real_output(self):
        rng = np.random.default_rng(9)
        a, q = random_stable_pair(rng, 3)
        assert solve(a, q).dtype == np.float64

    def test_problem_object(self):
        a = np.diag([-1.0, -2.0])
        q = np.eye(2)
        assert np.allclose(solve(LyapunovProblem(a, q)), solve(a, q))

    def test_refuses_marginal_generator(self):
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="stable"):
            solve(rotation, np.eye(2))

    def test_refuses_unstable_generator(self):
        dyn = catalog_build("OPO", dict(epsilon=1.2, kappa=1.0)).build()
        with pytest.raises(ValueError, match="stable"):
            steady_covariance(dyn)

    def test_refusals_are_typed_and_only_the_quadrature_calls_stability_check(self, monkeypatch):
        """The solve's gate stays inline on its Schur form; solve_integral gates by require_stable."""
        calls = []
        check = lindlyap.model.stability_check
        monkeypatch.setattr(lindlyap.model, "stability_check", lambda *a, **k: calls.append(a) or check(*a, **k))
        a = np.array([[0.1, 1.0], [0.0, -1.0]])
        tol = Tolerances(stability_margin=1e-3)
        for route, count in ((solve, 0), (solve_integral, 1)):
            with pytest.raises(UnstableDriftError) as info:
                route(a, np.eye(2), tol=tol)
            assert (info.value.abscissa, info.value.margin) == (pytest.approx(0.1, abs=1e-15), 1e-3)
            assert str(info.value) == "Lyapunov solve needs an asymptotically stable drift matrix (spectral abscissa 1.000000e-01)"
            assert len(calls) == count
            calls.clear()

    def test_hermiticity_of_solution(self):
        rng = np.random.default_rng(17)
        a, q = random_stable_pair(rng, 4, complex_gen=True)
        p = solve(a, q)
        assert np.allclose(p, p.conj().T, atol=1e-12)


def kronecker_solve(a, q):
    """Reference solution from the vectorized n^2 x n^2 system (I x A + conj(A) x I) vec P = -vec Q."""
    eye = np.eye(a.shape[0])
    big = np.kron(eye, a) + np.kron(a.conj(), eye)
    vec = np.linalg.solve(big, -q.reshape(-1, order="F").astype(complex))
    return vec.reshape(a.shape, order="F")


ROUTES = ("real", "complex generator", "complex source")


@st.composite
def stable_pairs(draw):
    """A stable generator of dimension <= 8 and a Hermitian PSD source.

    The generator is a random (so generally non-normal) matrix plus rotation
    blocks that favour complex eigenvalue pairs, shifted so that its spectral
    abscissa is -gap.
    """
    dim = draw(st.integers(1, 8))
    route = draw(st.sampled_from(ROUTES))
    entries = hnp.arrays(float, (dim, dim), elements=st.floats(-2.0, 2.0))
    a = draw(entries)
    for k, w in enumerate(draw(st.lists(st.floats(0.5, 3.0), max_size=dim // 2))):
        a[2 * k, 2 * k + 1] += w
        a[2 * k + 1, 2 * k] -= w
    if route == "complex generator":
        a = a + 1j * draw(entries)
    gap = draw(st.floats(0.1, 2.0))
    a = a - (np.linalg.eigvals(a).real.max() + gap) * np.eye(dim)
    b = draw(entries)
    if route != "real":
        b = b + 1j * draw(entries)
    return a, b @ b.conj().T


def damped_chain(n, seed):
    """n modes with Hessian I + 0.2 M M^T / n and a thermal bath on every mode."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * n, 2 * n))
    vectors = []
    for mode in range(n):
        vectors += thermal_bath(n, mode, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0)))
    return build_dynamics(QuadraticHamiltonian(np.eye(2 * n) + 0.2 * m @ m.T / n), vectors)


class TestBartelsStewart:
    @settings(max_examples=200, deadline=None)
    @given(stable_pairs())
    def test_matches_kronecker_reference(self, pair):
        a, q = pair
        p = solve(a, q)
        ref = kronecker_solve(a, q)
        assert np.abs(p - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
        assert np.isrealobj(p) == (np.isrealobj(a) and np.isrealobj(q))
        assert np.array_equal(p, p.conj().T)

    @pytest.mark.parametrize(
        "route, offset",
        [(route, offset) for route in ROUTES for offset in (-1e-12, -1e-13, 1e-13, 1e-12, -0.1, 0.1)]
        + [("triangular", offset) for offset in (-1e-12, 0.0, 1e-12)],
    )
    def test_refuses_exactly_the_unstable_generators(self, route, offset):
        """solve refuses a generator iff stability_check does, also next to the margin.

        The leading rotation block puts an eigenvalue pair at sigma +- 0.8i with
        sigma = -0.25 + offset; the rest is more stable and coupled to it from
        above, so the generator is non-normal.  stability_margin is 0.25 relative
        to the generator's size, so the margin is 0.25 to rounding.
        """
        sigma = -0.25 + offset
        t = np.array(
            [
                [sigma, 0.8, 0.3, -0.5],
                [-0.8, sigma, 0.7, 0.2],
                [0.0, 0.0, -1.0, 0.4],
                [0.0, 0.0, 0.0, -1.5],
            ]
        )
        rng = np.random.default_rng(7)
        q = np.eye(4)
        if route == "triangular":  # a real double eigenvalue sigma, exact in both factorizations
            a = np.triu(t)
        elif route == "complex generator":
            u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            a = u @ t @ u.conj().T
        else:
            o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            a = o @ t @ o.T
            if route == "complex source":
                q = q + 0.5j * np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        tol = Tolerances(stability_margin=0.25 / np.abs(a).max())
        assert stability_check(a, tol).margin == pytest.approx(0.25, rel=1e-15)
        if stability_check(a, tol).is_stable:
            p = solve(a, q, tol=tol)
            assert residual(a, p, q) < 1e-12
        else:
            with pytest.raises(ValueError, match="Lyapunov solve needs an asymptotically stable"):
                solve(a, q, tol=tol)

    def test_single_precision_input_solved_in_double(self):
        rng = np.random.default_rng(12)
        a, q = random_stable_pair(rng, 6)
        p = solve(a.astype(np.float32), q.astype(np.float32))
        assert p.dtype == np.float64
        assert residual(a.astype(np.float32), p, q.astype(np.float32)) < 1e-12 * np.abs(q).max()

    def test_large_solve_meets_residual_tolerance(self):
        dyn = damped_chain(32, seed=1)
        p = steady_covariance(dyn)
        assert p.shape == (64, 64)
        assert residual(dyn.drift_matrix, p, dyn.diffusion) <= 1e-12 * np.abs(dyn.diffusion).max()

    def test_allocation_peak_at_n24(self):
        """O(n^2) working memory: the n^4 Kronecker matrix alone would take 42 MB."""
        dyn = damped_chain(24, seed=2)
        solve(dyn.drift_matrix, dyn.diffusion)  # warm the LAPACK wrappers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(dyn.drift_matrix, dyn.diffusion)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestSolveIntegral:
    def test_exponential_closed_form(self):
        # integrand 2 exp(-2t) integrates to exactly 1
        p = solve_integral(-np.eye(2), 2.0 * np.eye(2))
        assert np.abs(p - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_agrees_with_algebraic_solve(self, n):
        rng = np.random.default_rng(n)
        a, q = random_stable_pair(rng, n)
        p = solve(a, q)
        assert np.abs(solve_integral(a, q) - p).max() <= 1e-12 * np.abs(p).max()

    def test_complex_source(self):
        rng = np.random.default_rng(41)
        a, q = random_stable_pair(rng, 3, complex_gen=True)
        p = solve(a, q)
        assert np.abs(solve_integral(a, q) - p).max() <= 1e-12 * np.abs(p).max()

    def test_short_horizon_warns(self):
        with pytest.warns(RuntimeWarning, match="horizon"):
            solve_integral(-0.01 * np.eye(2), np.eye(2), horizon=1.0)


class TestShiftedSources:
    def test_shift_identity(self):
        """Solving with a shifted source shifts the solution by the same matrix."""
        rng = np.random.default_rng(23)
        for _ in range(5):
            a, q = random_stable_pair(rng, 4, complex_gen=True)
            xi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            xi = 0.5 * (xi + xi.conj().T)
            p = solve(a, q)
            p_shifted = solve(a, q - xi @ a.conj().T - a @ xi)
            assert np.allclose(p_shifted, p + xi, atol=1e-10)

    def test_psd_shift_transfers_to_solution(self):
        """A PSD shifted source forces the shifted solution to be PSD."""
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(60):
            n = 4
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T) - (np.linalg.eigvalsh(0.5 * (a + a.T)).max() + 0.4) * np.eye(n)
            xi = rng.normal(size=(n, n))
            xi = 0.5 * (xi + xi.T)
            b = rng.normal(size=(n, n))
            q_shifted = b @ b.T  # prescribe a PSD shifted source
            q = q_shifted + xi @ a + a @ xi
            p = solve(a, q)
            assert np.linalg.eigvalsh(p + xi).min() > -1e-10
            hits += 1
        assert hits == 60

    def test_converse_fails_for_symmetric_generator(self):
        """Positive solutions do not imply positive sources, even for A = A^T.

        Frozen counterexample: the solution is positive definite while the
        source is indefinite, so positivity of P + Xi cannot certify
        positivity of the shifted source.
        """
        a = np.diag([-1.0, -2.0])
        q = np.array([[1.0, 1.05], [1.05, 1.0]])
        p = solve(a, q)
        assert np.allclose(p, [[0.5, 0.35], [0.35, 0.25]], atol=1e-12)
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(q).min() < 0


class TestSteadyStateProblem:
    def test_fields(self):
        """The model's steady-state equation is its cached form and its diffusion, read as they are."""
        dyn = catalog_build("OPO", dict(epsilon=0.3, kappa=1.0)).build()
        prob = LyapunovProblem(dyn.drift_schur, dyn.diffusion)
        assert prob.form is dyn.drift_schur
        assert prob.generator is dyn.drift_matrix
        assert np.array_equal(prob.source, dyn.diffusion)
        assert np.array_equal(solve(prob), steady_covariance(dyn))


class TestResidualGate:
    def test_nan_source_refused(self):
        q = np.array([[1.0, np.nan], [np.nan, 1.0]])
        for solver in (solve, solve_integral):
            with pytest.raises(ValueError, match="^source is not finite"):
                solver(-np.eye(2), q)

    def test_non_normal_generator_with_a_huge_solution(self):
        """A Jordan block makes |P| ~ 3e13 |Q|.  The residual then sits near
        eps |A| |P|, far above eps |Q|, although P is accurate to 1e-15; the
        gate measures it against the larger of 2 |A| |P| and |Q| and so accepts the solve."""
        a = -0.109375 * np.eye(8) + np.diag(np.ones(7), 1)
        q = np.full((8, 8), 8.0)
        p = solve(a, q)
        ref = kronecker_solve(a, q)
        assert np.abs(p).max() > 1e13 * np.abs(q).max()
        assert residual(a, p, q) > 1e-8 * np.abs(q).max()
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_scale_that_is_not_finite_fails(self):
        """A = diag(-1e200, -1) and Q = diag(0, 2e200) make 2 |A| |P| overflow for a P of size 1e200:
        a sum scale 2 |A| |P| + |Q| is inf and passes any residual, so a scale that is not finite fails,
        the exact solution's included."""
        a, q = np.diag([-1e200, -1.0]), np.diag([0.0, 2e200])
        for p in (np.diag([1.0, 1e200]), np.diag([0.0, 1e200])):
            failure = lindlyap.lyapunov._residual_failure(a, p, q, Tolerances())
            assert re.fullmatch(r"Lyapunov residual \S+ exceeds tolerance on scale inf", failure)


def mp_finite_horizon(a, q, horizon):
    """P - exp(A T) P exp(A^T T) to 50 digits, P from the vectorized equation, for real A and Q."""
    with mpmath.workdps(50):
        n = len(a)
        g = mpmath.matrix(a.tolist())
        kron = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    kron[i * n + j, k * n + j] += g[i, k]
                    kron[i * n + j, i * n + k] += g[j, k]
        vec = mpmath.lu_solve(kron, mpmath.matrix([-float(x) for x in q.ravel()]))
        p = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                p[i, j] = vec[i * n + j]
        e = mpmath.expm(g * horizon)
        w = p - e * p * e.T
        return np.array([[float(w[i, j]) for j in range(n)] for i in range(n)])


class TestSolveIntegralDoubling:
    """The integral route is exact: one short-time Van Loan block, doubled up to the horizon."""

    @pytest.mark.filterwarnings("ignore:integrand norm:RuntimeWarning")  # short horizons
    @pytest.mark.parametrize("squarings", [0, 1, 2, 3, 6, 12])
    @pytest.mark.parametrize("n, complex_gen", [(1, False), (2, False), (4, False), (3, True)])
    def test_doubled_block_matches_closed_form(self, monkeypatch, n, complex_gen, squarings):
        """A horizon of 0.75 * 2^m / ||A||_1 is reached by exactly m squarings of the short-time
        pair, and the result is P - E P E^dag with P and E from scipy, whatever m is."""
        rng = np.random.default_rng(10 * n + complex_gen)
        a, q = random_stable_pair(rng, n, complex_gen)
        horizon = 0.75 * 2.0**squarings / np.linalg.norm(a, 1)
        calls = []

        def counted(e, w):
            calls.append(len(e))
            return _square(e, w)

        monkeypatch.setattr(lindlyap.lyapunov, "_square", counted)
        w = solve_integral(a, q, horizon=horizon)
        assert len(calls) == squarings
        p = scipy.linalg.solve_continuous_lyapunov(a, -q)
        e = scipy.linalg.expm(a * horizon)
        decayed = e @ p @ e.conj().T
        assert w.dtype == (complex if complex_gen else float)
        assert np.abs(w - (p - decayed)).max() <= 1e-12 * (np.abs(p).max() + np.abs(decayed).max())

    @pytest.mark.filterwarnings("ignore:integrand norm:RuntimeWarning")  # short horizons
    @settings(max_examples=200, deadline=None)
    @given(stable_pairs(), st.floats(0.01, 50.0))
    def test_finite_horizon_identity(self, pair, horizon):
        """The integral over [0, T] is P - E P E^dag with P the solve and E = exp(A T), within
        1e-12 of the size of those two terms (the reference cancels when |P| >> |W(T)|)."""
        a, q = pair
        p = solve(a, q)
        e = scipy.linalg.expm(a * horizon)
        decayed = e @ p @ e.conj().T
        w = solve_integral(a, q, horizon=horizon)
        # below the smallest normal float a difference is underflow noise, not error
        scale = max(np.abs(p).max() + np.abs(decayed).max(), np.finfo(float).tiny)
        assert np.abs(w - (p - decayed)).max() <= 1e-12 * scale
        assert np.isrealobj(w) == (np.isrealobj(a) and np.isrealobj(q))

    def test_non_normal_generator(self):
        """For A = -I/2 + N (N the 4 x 4 shift) and Q = I, P_ij = sum_k C(2k - i - j, k - i), and
        the tail beyond T = 80 is below 1e-23."""
        a = -0.5 * np.eye(4) + np.diag(np.ones(3), 1)
        ref = np.array(
            [[sum(math.comb(2 * k - i - j, k - i) for k in range(max(i, j), 4)) for j in range(4)] for i in range(4)],
            dtype=float,
        )
        assert ref[0].tolist() == [29, 14, 5, 1]
        p = solve_integral(a, np.eye(4), horizon=80.0)
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_strongly_non_normal_drift_over_a_long_horizon(self):
        """The 6 x 6 drift on which one long evolve stride loses digits: the finite-horizon
        integral to T = 400 against a 50-digit value."""
        a = -0.1 * np.eye(6)
        a[0, 1], a[0, 3], a[2, 0], a[3, 4] = -1.0, 1.0, 1.5, 1.0
        q = np.full((6, 6), 6.0)
        ref = mp_finite_horizon(a, q, 400)
        w = solve_integral(a, q, horizon=400.0)
        assert np.abs(w - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_tail_warning_reads_the_last_node(self):
        """Over one unit of time the integrand at the horizon is exp(-0.02) of the source."""
        with pytest.warns(RuntimeWarning, match=r"integrand norm 9\.802e-01 at the horizon"):
            solve_integral(-0.01 * np.eye(2), np.eye(2), horizon=1.0)


class TestSolveIntegralArguments:
    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_horizon_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be finite and positive"):
            solve_integral(-np.eye(2), np.eye(2), horizon=horizon)

    @pytest.mark.parametrize("horizon", [40, np.int64(40), np.float64(40.0)])
    def test_numeric_horizon_types(self, horizon):
        """Any real number type gives the value of the same float horizon, bit for bit."""
        a, q = -np.eye(2) + np.diag([0.5], 1), np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(solve_integral(a, q, horizon=horizon), solve_integral(a, q, horizon=40.0))


class TestFlow:
    """The private pair (E, W) = (exp(A t), int_0^t exp(A s) Q exp(A^dag s) ds) shared with evolve."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_propagator_is_the_exponential(self, route):
        a, q = route_pair(np.random.default_rng(7), 4, route)
        e, _ = _flow(a, q, 3.0)
        ref = scipy.linalg.expm(3.0 * a)
        assert np.abs(e - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("route", ROUTES)
    def test_pairs_compose_over_consecutive_times(self, route):
        """The pair over 1 + 2 is E2 E1 and W2 + E2 W1 E2^dag, from blocks of different lengths."""
        a, q = route_pair(np.random.default_rng(8), 4, route)
        e1, w1 = _flow(a, q, 1.0)
        e2, w2 = _flow(a, q, 2.0)
        e, w = _flow(a, q, 3.0)
        assert np.abs(e2 @ e1 - e).max() <= 1e-13 * np.abs(e).max()
        assert np.abs(w2 + e2 @ w1 @ e2.conj().T - w).max() <= 1e-13 * np.abs(w).max()

    @pytest.mark.parametrize("route", ROUTES)
    def test_gramian_is_hermitian_and_positive(self, route):
        """W is Hermitian positive semidefinite up to rounding, before solve_integral symmetrizes it."""
        a, q = route_pair(np.random.default_rng(9), 4, route)
        _, w = _flow(a, q, 3.0)
        assert np.abs(w - w.conj().T).max() <= 1e-13 * np.abs(w).max()
        assert np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min() >= -1e-13 * np.abs(w).max()


class TestNonFiniteGenerator:
    @pytest.mark.parametrize("solver", [solve, solve_integral])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refused_naming_the_generator(self, solver, bad):
        a = np.array([[-1.0, bad], [0.0, -1.0]])
        with pytest.raises(ValueError, match="^generator is not finite"):
            solver(a, np.eye(2))

    def test_problem_refused(self):
        with pytest.raises(ValueError, match="^generator is not finite"):
            LyapunovProblem(np.array([[np.nan]]), np.eye(1))


class TestSolveOnSchurForm:
    @pytest.mark.parametrize(
        "dyn",
        [
            catalog_build("OPOThermal", dict(epsilon=0.05, kappa=1.0, zeta=1.7, nbar=0.3)).build(),
            catalog_build("CascadedOPO", dict(epsilon1=0.3, epsilon2=-0.2, kappa=1.0)).build(),
            damped_chain(6, 3),
            damped_chain(12, 4),
        ],
        ids=["OPOThermal", "CascadedOPO", "chain6", "chain12"],
    )
    def test_steady_covariance_is_the_bare_solve_bit_for_bit(self, dyn):
        assert np.array_equal(steady_covariance(dyn), solve(dyn.drift_matrix, dyn.diffusion))

    def test_given_form_is_not_factorized_again(self, drift_factorizations):
        a, q = random_stable_pair(np.random.default_rng(21), 6)
        drift_factorizations.clear()  # the draw's own eigensolve
        form = schur_form(a)
        p = solve(form, q)
        assert drift_factorizations == ["schur"]
        assert np.array_equal(p, solve(a, q))

    def test_complex_source_converts_the_real_form(self, drift_factorizations):
        rng = np.random.default_rng(22)
        a, _ = random_stable_pair(rng, 5)
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q = b @ b.conj().T
        drift_factorizations.clear()
        form = schur_form(a)
        p = solve(LyapunovProblem(form, q))
        assert drift_factorizations == ["schur"]
        ref = kronecker_solve(a, q)
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(p, p.conj().T)

    def test_problem_holds_the_matrix_and_the_form(self):
        a, q = random_stable_pair(np.random.default_rng(23), 4)
        form = schur_form(a)
        prob = LyapunovProblem(form, q)
        assert prob.generator is form.matrix and prob.form is form
        assert LyapunovProblem(a, q).form is None
        assert residual(prob, solve(prob)) < 1e-12 * np.abs(q).max()

    def test_unstable_form_refused(self):
        form = schur_form(np.array([[0.1, 1.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="^Lyapunov solve needs an asymptotically stable"):
            solve(form, np.eye(2))
