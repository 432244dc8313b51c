"""Continuous Lyapunov equations A P + P A^dag + Q = 0 and the shifted source
matrices used by the stationary-state criteria.

The primary solver follows Bartels and Stewart (CACM 15(9), 1972): one Schur
factorization A = U T U^dag (a :class:`~lindlyap.model.SchurForm`) both
certifies stability (the spectral abscissa is read off T) and reduces the
equation to the triangular Sylvester system T X + X T^dag = -U^dag Q U,
solved by LAPACK ``trsyl``, with P = U X U^dag.  Cost is O(n^3) time and
O(n^2) memory.  A generator may be given as its Schur form, so a model's
cached form (or one shared with a stability gate) is not factorized again;
a real form meeting a complex source is converted by ``rsf2csf``, not
refactorized.  An independent solver evaluates the integral representation
P = int_0^inf exp(A t) Q exp(A^dag t) dt, cut at a horizon T, exactly: the
finite-horizon integral W(T) = P - exp(A T) P exp(A^dag T) is read off one
matrix exponential of a Van Loan block (Van Loan, IEEE TAC 23(3), 1978)
taken over a short time and squared up to T.  It is kept deliberately
separate so the two routes can cross-check each other: apart from its
stability gate it never touches the Schur form or ``trsyl``.  The same
exact flow (E, W) = (exp(A t), W(t)) propagates the moments in
:mod:`lindlyap.evolution`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, get_lapack_funcs, rsf2csf

from .core import DEFAULT_TOL, Tolerances, check_hermitian, hermitian_part
from .model import (
    GaussianDynamics,
    SchurForm,
    UnstableDriftError,
    _require_finite,
    require_stable,
    schur_form,
)

__all__ = [
    "LyapunovProblem",
    "steady_state_problem",
    "solve",
    "solve_integral",
    "residual",
    "steady_covariance",
    "shifted_source",
]


@dataclass(frozen=True)
class LyapunovProblem:
    """Data of A P + P A^dag + Q = 0: a stable, finite generator and a Hermitian source.

    The generator may be given as a SchurForm; generator is then its matrix
    and form the record, which the solve reads instead of factorizing.
    """

    generator: np.ndarray
    source: np.ndarray
    form: SchurForm | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.generator, SchurForm):
            object.__setattr__(self, "form", self.generator)
            object.__setattr__(self, "generator", self.generator.matrix)
        a = np.asarray(self.generator)
        q = np.asarray(self.source)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"generator must be square, got shape {a.shape}")
        if q.shape != a.shape:
            raise ValueError(f"source shape {q.shape} does not match generator shape {a.shape}")
        _require_finite(("generator", a))
        object.__setattr__(self, "generator", a)
        object.__setattr__(self, "source", q)


def steady_state_problem(dyn: GaussianDynamics) -> LyapunovProblem:
    """The covariance steady-state equation of a model: generator = drift (with its cached
    Schur form), source = diffusion."""
    return LyapunovProblem(dyn.drift_schur, dyn.diffusion)


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
    the generator.  The form is real for a real generator; a complex source
    needs a complex form (real ``trsyl`` cannot take a complex right-hand
    side), to which a real form is converted by ``rsf2csf``.  The unique
    solution is returned Hermitian (real when the inputs are real), after an
    explicit residual check.
    """
    prob = _as_problem(problem, source)
    a = prob.generator
    q = check_hermitian(prob.source, tol, what="source")
    form = prob.form or schur_form(a)
    if form.abscissa >= -tol.stability_margin:
        raise UnstableDriftError("Lyapunov solve", form.abscissa, tol.stability_margin)

    t, u = form.t, form.u
    real = np.isrealobj(t) and np.isrealobj(q)
    if np.isrealobj(t) and not real:
        t, u = rsf2csf(t, u, check_finite=False)
    c = -(u.conj().T @ q @ u)
    (trsyl,) = get_lapack_funcs(("trsyl",), (t, c))
    x, scale, info = trsyl(t, t, c, tranb="T" if real else "C")
    if info < 0:
        raise ValueError(f"LAPACK trsyl rejected argument {-info}")
    p = hermitian_part(u @ (x / scale) @ u.conj().T)

    # the residual is judged against the size of the equation's terms, 2 |A| |P| + |Q|, the
    # normwise backward error (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., sec. 16.2); a non-normal A makes |P| >> |Q| and then |Q| alone cannot be reached.
    # Below the smallest normal float a residual is underflow noise, not error.
    scale = max(2.0 * np.abs(a).max() * np.abs(p).max() + np.abs(q).max(), np.finfo(float).tiny)
    res = np.abs(a @ p + p @ a.conj().T + q).max()
    if not (res <= tol.residual_tol * scale):
        raise ValueError(f"Lyapunov residual {res:.3e} exceeds tolerance on scale {scale:.3e}")
    return p


def _flow(a: np.ndarray, q: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, W) over a time t: E = exp(A t) and W = int_0^t exp(A s) Q exp(A^dag s) ds.

    exp(s [[-A, Q], [0, A^dag]]) = [[*, F], [0, exp(A s)^dag]], and exp(A s) F is W over a time
    s (Van Loan, IEEE TAC 23(3), 1978).  The block also holds exp(-A s), whose growth swamps W
    unless ||A s|| is small, so the pair is built over s = t / 2^m with ||A s||_1 < 1 and
    squared m times.
    """
    m = max(0, int(np.frexp(t * np.linalg.norm(a, 1))[1]))
    block = expm(t / 2**m * np.block([[-a, q], [np.zeros_like(a), a.conj().T]]))
    dim = len(a)
    e = block[dim:, dim:].conj().T
    flow = e, e @ block[:dim, dim:]
    for _ in range(m):
        flow = _square(*flow)
    return flow


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
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    prob = _as_problem(problem, source)
    a = prob.generator
    q = check_hermitian(prob.source, tol, what="source")
    abscissa = require_stable(prob.form or a, "Lyapunov solve", tol).spectral_abscissa
    if horizon is None:
        horizon = 40.0 / abs(abscissa)
    e, w = _flow(a, q, horizon)

    tail = np.abs(e @ q @ e.conj().T).max()
    scale = np.abs(q).max() or 1.0
    if tail > tol.residual_tol * scale:
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
    """Max-norm residual ||A P + P A^dag + Q||_inf of a candidate solution."""
    prob = _as_problem(problem, source)
    a = prob.generator
    q = prob.source
    return float(np.abs(a @ p + p @ a.conj().T + q).max())


def steady_covariance(dyn: GaussianDynamics, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Stationary covariance matrix of a stable model."""
    return solve(steady_state_problem(dyn), tol=tol)


def shifted_source(source, generator, shift, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Source matrix shifted by a Hermitian test matrix: Q - Xi A^dag - A Xi.

    Solving with the shifted source returns P + Xi, so positivity of the
    shifted source certifies P + Xi >= 0 for any stable generator.
    """
    q = np.asarray(source)
    a = np.asarray(generator)
    xi = check_hermitian(np.asarray(shift), tol, what="shift")
    return q - xi @ a.conj().T - a @ xi
