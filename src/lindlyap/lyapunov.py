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
refactorized.  An independent quadrature solver evaluates the integral
representation P = int_0^inf exp(A t) Q exp(A^dag t) dt by composite Simpson
quadrature and is kept deliberately separate so the two routes can
cross-check each other: apart from its stability gate it never touches the
Schur form or ``trsyl``.  Its integrand is advanced by congruence with the
one-step propagator, and the congruence sum over the nodes is doubled in
O(log steps) matrix products rather than stepped node by node.
"""

from __future__ import annotations

import math
import numbers
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


def _congruence_sum(p: np.ndarray, q: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k < count} p^k q (p^k)^dag, p^count) by binary doubling of the sum."""
    dtype = np.result_type(p, q)
    total = np.zeros(q.shape, dtype)
    offset = np.eye(len(p), dtype=dtype)  # p^j, with j the number of terms in `total`
    block, power = q, p  # the sum of the first m terms, and p^m, for m = 1, 2, 4, ...
    while True:
        if count & 1:
            total = total + offset @ block @ offset.conj().T
            offset = offset @ power
        count >>= 1
        if not count:
            return total, offset
        block = block + power @ block @ power.conj().T
        power = power @ power


def solve_integral(
    problem,
    source=None,
    horizon: float | None = None,
    steps: int = 2400,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Quadrature solution of the same equation via its integral representation.

    Integrates exp(A t) Q exp(A^dag t) over [0, horizon] with composite Simpson
    weights on `steps` intervals (rounded up to even).  The propagator P over
    one step is computed once and the integrand is advanced by congruence,
    node k being P^k Q (P^k)^dag: the even nodes sum to E by binary doubling
    of the congruence over P^2, the odd ones to P E P^dag, so a single matrix
    exponential and O(log steps) products are needed.  The default horizon
    40 / |spectral abscissa| makes the discarded tail negligible; a warning is
    issued if the integrand has not decayed at the endpoint.  horizon must be
    finite and positive, steps an integer >= 1.  Independent of :func:`solve`
    by construction.
    """
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    prob = _as_problem(problem, source)
    a = prob.generator
    q = check_hermitian(prob.source, tol, what="source")
    abscissa = require_stable(prob.form or a, "Lyapunov solve", tol).spectral_abscissa
    if horizon is None:
        horizon = 40.0 / abs(abscissa)
    half = (int(steps) + 1) // 2

    h = horizon / (2 * half)
    step_prop = expm(a * h)
    # Simpson weights 1, 4, 2, ..., 2, 4, 1: twice the even nodes below t = horizon,
    # four times the odd ones, less the doubled node at t = 0, plus the node at t = horizon
    even, last_prop = _congruence_sum(step_prop @ step_prop, q, half)
    node = last_prop @ q @ last_prop.conj().T
    acc = 4.0 * (step_prop @ even @ step_prop.conj().T) + 2.0 * even - q + node

    tail = np.abs(node).max()
    scale = np.abs(q).max() or 1.0
    if tail > tol.residual_tol * scale:
        warnings.warn(
            f"integrand norm {tail:.3e} at the horizon has not decayed below "
            f"{tol.residual_tol:.1e} of the source scale; increase the horizon",
            RuntimeWarning,
            stacklevel=2,
        )
    p = hermitian_part(acc * (h / 3.0))
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
