"""Continuous Lyapunov equations A P + P A^dag + Q = 0.

The primary solver follows Bartels and Stewart (CACM 15(9), 1972): one Schur
factorization A = U T U^dag (a :class:`~lindlyap.model.SchurForm`) both
certifies stability (the spectral abscissa is read off the eigenvalues ``gees``
returns with T) and reduces the equation to the triangular Sylvester system
T X + X T^dag = -U^dag Q U, solved by LAPACK ``trsyl`` (taken from scipy's
compiled wrapper module, see :mod:`lindlyap._lapack`), with P = U X U^dag.
Cost is O(n^3) time and O(n^2) memory.  A generator may be given as its
Schur form, so a model's cached form (or one shared with a stability gate) is
not factorized again; a real form meeting a complex source is not refactorized
either: as X -> T X + X T^T is a real map, the real and imaginary parts of the
source are solved as two real systems on the same T.
Whether a P solves the equation is judged by one rule, in the solve and in the
base gate of :func:`~lindlyap.williamson.engineer_covariant_target`: the
max-norm residual must lie within residual_tol of the larger of
2 max|A| max|P| and max|Q|, and a residual or scale that is not finite fails.
An independent solver evaluates the integral representation
P = int_0^inf exp(A t) Q exp(A^dag t) dt, cut at a horizon T, exactly: the
finite-horizon integral W(T) = P - exp(A T) P exp(A^dag T) is read off one
matrix exponential of a Van Loan block (Van Loan, IEEE TAC 23(3), 1978)
taken over a short time and squared up to T; the exponential is scipy's
``expm`` run on its compiled kernels (:func:`_expm`), so this route imports no
scipy package either.  It is kept deliberately
separate so the two routes can cross-check each other: apart from its
stability gate it never touches the Schur form or ``trsyl``.  The same
exact flow (E, W) = (exp(A t), W(t)) propagates the moments in
:mod:`lindlyap.evolution`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._lapack import flapack, load
from .core import DEFAULT_TOL, Tolerances, check_hermitian, hermitian_part, read_matrix, read_number, within
from .model import GaussianDynamics, SchurForm, UnstableDriftError, require_stable, schur_form

__all__ = [
    "LyapunovProblem",
    "solve",
    "solve_integral",
    "residual",
    "steady_covariance",
]


@dataclass(frozen=True)
class LyapunovProblem:
    """Data of A P + P A^dag + Q = 0: a stable generator and a Hermitian source, both square, finite
    and of one shape (:func:`~lindlyap.core.read_matrix`).

    The generator may be given as a SchurForm; generator is then its matrix
    and form the record, which the solve reads instead of factorizing.
    """

    generator: np.ndarray
    source: np.ndarray
    form: SchurForm | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        q = read_matrix(self.source, "source", phase_space=False)
        if isinstance(self.generator, SchurForm):
            object.__setattr__(self, "form", self.generator)
        # a form's matrix was read when it was factorized
        a = self.form.matrix if self.form else read_matrix(self.generator, "generator", phase_space=False)
        if q.shape != a.shape:
            raise ValueError(f"source shape {q.shape} does not match generator shape {a.shape}")
        object.__setattr__(self, "generator", a)
        object.__setattr__(self, "source", q)


def _as_problem(problem, source=None) -> LyapunovProblem:
    if isinstance(problem, LyapunovProblem):
        return problem
    return LyapunovProblem(problem, source)


def solve(problem, source=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve A P + P A^dag + Q = 0 by the Bartels-Stewart method.

    Accepts a LyapunovProblem or a (generator, source) pair, where the
    generator may be given as its SchurForm.  The source must be Hermitian
    and the generator asymptotically stable, which is decided on the same
    Schur form that the solve uses: the given one, or one factorization of
    the generator.  The form is real for a real generator.  A complex source on
    a real form is solved as two real systems, one for the real and one for the
    imaginary part of -U^T Q U, since X -> T X + X T^T is a real map.  The unique
    solution is returned Hermitian (real when the inputs are real), after an
    explicit residual check: the residual must lie within residual_tol of the
    larger of 2 max|A| max|P| and max|Q|, and both it and that scale must be
    finite.
    """
    prob = _as_problem(problem, source)
    a = prob.generator
    q = check_hermitian(prob.source, tol, what="source")
    form = prob.form or schur_form(a)
    if not (report := form.stability(tol)).is_stable:
        raise UnstableDriftError("Lyapunov solve", report)

    t, u = form.t, form.u
    c = -(u.conj().T @ q @ u)
    if np.isrealobj(t):
        x = _trsyl(flapack.dtrsyl, t, c.real, "T")
        if np.iscomplexobj(c):  # X -> T X + X T^T is a real map: the imaginary part is a second system
            x = x + 1j * _trsyl(flapack.dtrsyl, t, c.imag, "T")
    else:
        x = _trsyl(flapack.ztrsyl, t, c, "C")
    p = hermitian_part(u @ x @ u.conj().T)
    if failure := _residual_failure(a, p, q, tol):
        raise ValueError(failure)
    return p


def _residual_failure(a: np.ndarray, p: np.ndarray, q: np.ndarray, tol: Tolerances) -> str | None:
    """Why P is refused as the solution of A P + P A^dag + Q = 0, or None if it is accepted: its max-norm
    residual must lie within residual_tol of the equation's scale, the larger of 2 max|A| max|P| and max|Q|.

    The scale is the size of the equation's largest term, as in the normwise backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 16.2); a non-normal A makes
    |P| >> |Q|, and then |Q| alone cannot be reached.  It is the larger term, not their sum, which
    overflows first.  A residual or scale that is not finite fails.
    """
    res = float(np.abs(a @ p + p @ a.conj().T + q).max())
    scale = max(2.0 * float(np.abs(a).max()) * float(np.abs(p).max()), float(np.abs(q).max()))
    passes = np.isfinite(scale) and within(res, tol.residual_tol, scale)
    return None if passes else f"Lyapunov residual {res:.3e} exceeds tolerance on scale {scale:.3e}"


def _trsyl(trsyl, t: np.ndarray, c: np.ndarray, tranb: str) -> np.ndarray:
    """X with T X + X op(T) = C, by LAPACK ``trsyl`` on the Schur factor T (op = ``tranb``)."""
    x, scale, info = trsyl(t, t, c, tranb=tranb)
    if info < 0:
        raise ValueError(f"LAPACK trsyl rejected argument {-info}")
    return x / scale


def _flow(a: np.ndarray, q: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, W) over a time t: E = exp(A t) and W = int_0^t exp(A s) Q exp(A^dag s) ds.

    exp(s [[-A, Q], [0, A^dag]]) = [[*, F], [0, exp(A s)^dag]], and exp(A s) F is W over a time
    s (Van Loan, IEEE TAC 23(3), 1978).  The block also holds exp(-A s), whose growth swamps W
    unless ||A s|| is small, so the pair is built over s = t / 2^m with ||A s||_1 < 1 and
    squared m times.
    """
    m = max(0, int(np.frexp(t * np.linalg.norm(a, 1))[1]))
    dim = len(a)
    gen = np.zeros((2 * dim, 2 * dim), dtype=np.result_type(a, q))
    gen[:dim, :dim], gen[:dim, dim:], gen[dim:, dim:] = -a, q, a.conj().T
    block = _expm(t / 2**m * gen)
    e = block[dim:, dim:].conj().T
    flow = e, e @ block[:dim, dim:]
    for _ in range(m):
        flow = _square(*flow)
    return flow


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square float or complex matrix, bit for bit ``scipy.linalg.expm(a)``.

    This is the 2-D body of scipy 1.17's ``expm`` on its compiled kernels ``pick_pade_structure`` and
    ``pade_UV_calc``, which pick a Pade degree and a scaling 2^-s and evaluate the approximant (Al-Mohy
    and Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009).  The result is squared s times; for a
    triangular matrix, each squaring recomputes the diagonal and first off-diagonal from their closed
    forms (their Code Fragment 2.1).  A diagonal matrix is exponentiated entrywise.
    """
    if a.shape == (1, 1):
        return np.exp(a)
    lower, upper = np.tril(a, -1).any(), np.triu(a, 1).any()  # scipy's bandwidth, read as zero or not
    if not (lower or upper):
        return np.diag(np.exp(np.diag(a)))
    kernels = load("linalg", "_matfuncs_expm")
    am = np.empty((5, *a.shape), dtype=a.dtype)  # the kernels' workspace; am[0] holds a, then the result
    am[0] = a
    m, s = kernels.pick_pade_structure(am)
    if m < 0:
        raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while trying to compute "
                          f"the Pade structure (error code {m}).")
    info = kernels.pade_UV_calc(am, m)
    if info <= -11:
        raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while trying to compute "
                          f"the exponential (error code {info}).")
    if info != 0:
        raise RuntimeError("scipy.linalg.expm got an internal LAPACK error during the exponential "
                           f"computation (error code {info})")
    e = am[0]
    if lower and upper:
        for _ in range(s):
            e = e @ e
        return e
    if s:
        diag, sd = np.diag(a), np.diag(a, k=-1 if lower else 1)
        np.einsum("ii->i", e)[:] = np.exp(diag * 2**(-s))
        for i in range(s - 1, -1, -1):
            e = e @ e
            np.einsum("ii->i", e)[:] = np.exp(diag * 2.0**(-i))
            exp_sd = _exp_sinch(diag * 2.0**(-i)) * (sd * 2**(-i))
            np.einsum("ii->i", e[1:, :-1] if lower else e[:-1, 1:])[:] = exp_sd
    return np.tril(e) if lower else np.triu(e)


def _exp_sinch(x: np.ndarray) -> np.ndarray:
    """(exp(x[k+1]) - exp(x[k])) / (x[k+1] - x[k]), or exp(x[k]) where the two are equal (Higham's (10.42))."""
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.0
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


def _square(e: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (E, W) over 2s from the pair over s."""
    return e @ e, e @ w @ e.conj().T + w


def solve_integral(
    problem,
    source=None,
    horizon: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Solution of the same equation via its integral representation, cut at a finite horizon.

    Returns W = int_0^horizon exp(A t) Q exp(A^dag t) dt, evaluated exactly (to rounding) from
    one matrix exponential of a Van Loan block and its squarings, with no quadrature rule.
    The default horizon 40 / |spectral abscissa| makes the discarded tail
    exp(A T) P exp(A^dag T) negligible; a warning is issued if the integrand
    ||exp(A T) Q exp(A^dag T)|| has not decayed at the horizon.  horizon must be finite and
    positive.  Independent of :func:`solve` by construction.
    """
    if horizon is not None:
        horizon = read_number(horizon, "horizon", "positive")
    prob = _as_problem(problem, source)
    a = prob.generator
    q = check_hermitian(prob.source, tol, what="source")
    abscissa = require_stable(prob.form or a, "Lyapunov solve", tol).spectral_abscissa
    if horizon is None:
        horizon = 40.0 / abs(abscissa)
    e, w = _flow(a, q, horizon)

    tail = np.abs(e @ q @ e.conj().T).max()
    if not within(tail, tol.residual_tol, np.abs(q).max()):
        warnings.warn(
            f"integrand norm {tail:.3e} at the horizon has not decayed below "
            f"{tol.residual_tol:.1e} of the source scale; increase the horizon",
            RuntimeWarning,
            stacklevel=2,
        )
    p = hermitian_part(w)
    if np.isrealobj(a) and np.isrealobj(prob.source):
        return p.real
    return p


def residual(problem, p: np.ndarray, source=None) -> float:
    """Max-norm residual ||A P + P A^dag + Q||_inf of a candidate solution P, which must be a finite
    float or complex matrix of the generator's size (:func:`~lindlyap.core.read_matrix`)."""
    prob = _as_problem(problem, source)
    a, q = prob.generator, prob.source
    p = read_matrix(p, "candidate solution", len(a), phase_space=False)
    return float(np.abs(a @ p + p @ a.conj().T + q).max())


def steady_covariance(dyn: GaussianDynamics, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Stationary covariance matrix of a stable model: the solve of its drift, given as the model's
    cached Schur form, and its diffusion."""
    return solve(LyapunovProblem(dyn.drift_schur, dyn.diffusion), tol=tol)
