"""Normal forms of covariance matrices and reservoir engineering.

A positive definite covariance matrix M is diagonalized by a symplectic congruence,
S M S^T = Lambda = diag(mu, mu); the mu are its symplectic eigenvalues.  The spectrum, the
normal form and the physicality test all read them off one Hermitian eigensolve of the
mode-balanced matrix (`_balanced`): the spectrum and the test take its eigenvalues alone, the
normal form its eigenvectors too (`_symplectic_eigh`).

Reservoir engineering needs no normal form: a covariance V is the unique steady state of the
pair (-I/2, V), whose noise Gram matrix (V - iJ)/2 is PSD exactly when V obeys the uncertainty
relation V + iJ >= 0 (Koga & Yamamoto, PRA 85, 022103 (2012)).  Transporting a solved base pair
by a symplectic congruence, the other route here, reaches the same targets from other drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lyapunov
from .core import (
    DEFAULT_TOL, Tolerances, check_hermitian, read_matrix, read_real, symplectic_form, within, zero_band,
)
from .model import LindbladRealization, realize_lindblad, require_stable, schur_form

__all__ = [
    "EngineeringError",
    "WilliamsonDecomposition",
    "EngineeredReservoir",
    "symplectic_spectrum",
    "williamson_decompose",
    "is_symplectic",
    "physical_spectrum",
    "engineer_target",
    "engineer_gibbs_target",
    "engineer_covariant_target",
]

# relative tolerance of the exact structural identities: symplecticity here, and in `symmetry`
# orthogonality, invariance and the steady-state templates
STRUCTURE_TOL = 1e-9


class EngineeringError(ValueError):
    """A requested reservoir cannot be built from the given data."""


def _balanced(v: np.ndarray):
    """(lam, w, d, h) of a real symmetric 2n x 2n matrix V, the part every symplectic eigensolve shares.

    Each mode is balanced to equal q and p variance by the symplectic scaling D = diag(d), which
    leaves nu unchanged and makes an uncorrelated squeezed mode well conditioned.  B = D V D has
    the eigendecomposition w diag(lam) w^T.  When B is positive definite, the symplectic
    eigenvalues nu (ascending) are the n positive eigenvalues of the Hermitian
    h = i B^(1/2) J B^(1/2); else h is None.
    """
    n, var = len(v) // 2, v.diagonal()
    var = np.where(var > 0, var, 1.0)  # a variance <= 0 stays on B's diagonal: B is not positive definite
    d = var[n:] ** 0.25 / var[:n] ** 0.25
    d = np.concatenate([d, 1.0 / d])
    lam, w = np.linalg.eigh(d[:, None] * v * d)
    if lam[0] <= 0:
        return lam, w, d, None
    root = (w * np.sqrt(lam)) @ w.T
    return lam, w, d, 1j * (root @ symplectic_form(n) @ root)


def _definite(m: np.ndarray):
    """:func:`_balanced` of a matrix that must be positive definite."""
    lam, w, d, h = _balanced(m)
    if h is None:
        raise ValueError(f"matrix must be positive definite, smallest eigenvalue {lam[0]:.6e}")
    return lam, w, d, h


def _nu(h: np.ndarray) -> np.ndarray:
    """The symplectic eigenvalues, ascending, from the eigenvalues of :func:`_balanced`'s h alone."""
    return np.linalg.eigvalsh(h)[len(h) // 2 :]


def _symplectic_eigh(m: np.ndarray):
    """(nu, u, t) of a positive definite M: nu as in :func:`_nu`, u the eigenvectors of h for nu,
    and t = B^(-1/2) D.

    Each u is fixed in phase: its first entry of modulus above half the column's largest is real
    and positive (the largest alone ties on symmetric two-mode states).
    """
    lam, w, d, h = _definite(m)
    n = len(m) // 2
    nu, u = np.linalg.eigh(h)
    u, size = u[:, n:], abs(u[:, n:])
    phase = u[np.argmax(size > 0.5 * size.max(axis=0), axis=0), np.arange(n)]
    return nu[n:], u * (abs(phase) / phase), (w / np.sqrt(lam)) @ w.T * d


def symplectic_spectrum(m: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite matrix, descending; a state is physical iff all >= 1."""
    return _nu(_definite(check_hermitian(read_matrix(m, "matrix")))[3])[::-1].copy()


def is_symplectic(w: np.ndarray) -> bool:
    """Whether W J W^T = J within STRUCTURE_TOL of the larger of max|J| = 1 and max|W|^2, in max-norm.

    Max-norms do not square the entries of W J W^T - J, which are of size eps max|W|^2, so the
    test stays finite as long as W J W^T does.  Anything that is not a real 2n x 2n matrix, a complex
    one included, is not symplectic.
    """
    try:
        w = read_real(w, "w")
    except ValueError:  # a nonzero imaginary part or a non-numeric entry: not a real symplectic matrix
        return False
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 or not w.size:
        return False
    j = symplectic_form(w.shape[0] // 2)
    dev = np.abs(w @ j @ w.T - j).max()
    return within(dev, STRUCTURE_TOL, 1.0, np.abs(w).max() ** 2)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic congruence S with S M S^T = diag(mu, mu), mu ascending, and the max-norm
    deviations of both identities as verified."""

    s: np.ndarray
    mu: np.ndarray
    diag_deviation: float  # |S M S^T - Lambda|_max
    form_deviation: float  # |S J S^T - J|_max

    @property
    def lambda_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([self.mu, self.mu]))


def williamson_decompose(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> WilliamsonDecomposition:
    """Diagonalize a positive definite 2n x 2n matrix by symplectic congruence.

    O = [sqrt2 Im u, sqrt2 Re u] from :func:`_symplectic_eigh` is orthogonal and brings
    B^(1/2) J B^(1/2) to [[0, Lambda], [-Lambda, 0]], so S = Lambda^(1/2) O^T B^(-1/2) D.  The phase
    rule on u fixes the rotation of each mode that S is otherwise free in, so a few ulp of change in
    M move S by rounding only (for distinct mu).  Both identities are verified before returning.
    """
    m = check_hermitian(read_matrix(m, "matrix"), tol)
    j = symplectic_form(m.shape[0] // 2)
    mu, u, t = _symplectic_eigh(m)
    u = np.sqrt(2 * mu) * u
    s = np.concatenate([u.imag, u.real], axis=1).T @ t
    err_m = float(np.abs(s @ m @ s.T - np.diag(np.concatenate([mu, mu]))).max())
    err_j = float(np.abs(s @ j @ s.T - j).max())
    rtol = 1e3 * tol.residual_tol  # S J S^T is compared with J, of size max|J| = 1
    if not (within(err_m, rtol, np.abs(m).max()) and within(err_j, rtol, 1.0)):
        raise ValueError(f"decomposition validation failed: |S M S^T - Lambda| = {err_m:.3e}, "
                         f"|S J S^T - J| = {err_j:.3e}")
    return WilliamsonDecomposition(s=s, mu=mu, diag_deviation=err_m, form_deviation=err_j)


@dataclass(frozen=True)
class EngineeredReservoir:
    """A dissipator built to make `target` the unique stationary covariance."""

    target: np.ndarray
    drift_matrix: np.ndarray
    diffusion: np.ndarray
    realization: LindbladRealization
    residual: float  # stationary-equation residual of target under the pair
    steady_cm: np.ndarray  # the pair's stationary covariance, solved to check it meets target
    target_deviation: float  # |steady_cm - target|_max


def _finish_engineering(
    target: np.ndarray, gamma: np.ndarray, d: np.ndarray, tol: Tolerances
) -> EngineeredReservoir:
    # one factorization of the drift serves the stability gate and the solve
    try:
        form = schur_form(gamma)
        require_stable(form, "engineered reservoir", tol)
        realization = realize_lindblad(gamma, d, tol)
    except ValueError as exc:
        raise EngineeringError(f"engineering infeasible: {exc}") from exc
    problem = lyapunov.LyapunovProblem(form, d)
    cm = lyapunov.solve(problem, tol=tol)
    dev = float(np.abs(cm - target).max())
    if not within(dev, 1e3 * tol.residual_tol, np.abs(target).max()):
        raise EngineeringError(f"engineered pair misses the target by {dev:.3e}")
    return EngineeredReservoir(
        target=target,
        drift_matrix=gamma,
        diffusion=d,
        realization=realization,
        residual=lyapunov.residual(problem, target),
        steady_cm=cm,
        target_deviation=dev,
    )


def physical_spectrum(target: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Symplectic eigenvalues nu of a covariance matrix V, descending, refusing an unphysical V.

    nu comes from :func:`_nu` on the mode-balanced B.  A relative change eps in B
    moves each nu by at most eps cond(B) max(nu), and err is 2n times that.  V is refused when a
    variance is not positive, B is indefinite beyond the zero band, or min(nu) + err < 1 -
    eig_zero_band.  None is returned when err exceeds the zero band; once cond(B) ~ 1/eps,
    rounding hides whether V is physical and V is not refused.
    """
    v = check_hermitian(read_matrix(target, "target covariance matrix"), tol, what="target covariance matrix")
    n, var = len(v) // 2, np.diag(v)
    if var.min() <= 0:
        raise EngineeringError(f"target is not physical: it has variance {var.min():.17g} <= 0")
    lam, _, _, h = _balanced(v)
    if lam[0] < -zero_band(lam, tol):
        raise EngineeringError("target is not physical: it is not positive semidefinite")
    if h is None:
        return None
    nu = _nu(h)
    err = 2 * n * np.finfo(float).eps * nu[-1] * lam[-1] / lam[0]
    if not within(1.0 - (nu[0] + err), tol.eig_zero_band, 1.0):  # the vacuum bound nu >= 1, of size 1
        raise EngineeringError(f"target is not physical: smallest symplectic eigenvalue {nu[0]:.17g} < 1")
    return nu[::-1] if within(err, tol.eig_zero_band, nu[-1]) else None


def engineer_target(target: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> EngineeredReservoir:
    """Reservoir whose unique steady state is the covariance matrix ``target``: exactly the pair
    (-I/2, V), whose noise Gram matrix (V - iJ)/2 is PSD iff V is physical (:func:`physical_spectrum`).
    """
    v = check_hermitian(read_matrix(target, "target covariance matrix"), tol, what="target covariance matrix")
    physical_spectrum(v, tol)
    return _finish_engineering(v, np.diag(np.full(len(v), -0.5)), v, tol)


def engineer_gibbs_target(
    transform: np.ndarray, alpha: float, tol: Tolerances = DEFAULT_TOL
) -> EngineeredReservoir:
    """The :func:`engineer_target` pair (-I/2, alpha S S^T) for a symplectic S.

    It is also the isotropic pair (-I/2, alpha I) transported by S, and S is
    not inverted.  alpha must be >= 1, within the zero band of ``tol``.
    """
    s = read_real(transform, "transform")
    if not is_symplectic(s):
        raise EngineeringError("transform must be symplectic")
    if not within(1.0 - alpha, tol.eig_zero_band, 1.0):  # the vacuum bound alpha >= 1, of size 1
        raise EngineeringError(f"alpha must be >= 1 for a physical target, got {alpha}")
    target = alpha * (s @ s.T)  # exactly symmetric: numpy forms S S^T by a symmetric rank-k update
    return _finish_engineering(target, np.diag(np.full(len(s), -0.5)), target, tol)


def engineer_covariant_target(
    base_cm: np.ndarray,
    base_drift: np.ndarray,
    base_diffusion: np.ndarray,
    transform: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> EngineeredReservoir:
    """Transport a known stationary triple along the inverse of a symplectic map.

    Given a base pair whose stationary covariance is base_cm, returns the
    engineered pair (S^-1 Gamma S, S^-1 D S^-T) whose steady state is
    S^-1 base_cm S^-T.  Used with the normal form of a target: if
    S M S^T = Lambda and a pair with steady state Lambda is available, the
    output pair steers the system into M.
    """
    s = read_real(transform, "transform")
    if not is_symplectic(s):
        raise EngineeringError("transform must be symplectic")
    lam, g0, d0 = (read_real(base_cm, "base_cm"), read_real(base_drift, "base_drift"),
                   read_real(base_diffusion, "base_diffusion"))
    res = np.abs(g0 @ lam + lam @ g0.T + d0).max()
    if not within(res, tol.residual_tol, np.abs(d0).max()):
        raise EngineeringError(
            f"base covariance does not solve the base stationary equation, residual {res:.3e}"
        )
    s_inv = np.linalg.inv(s)
    gamma = s_inv @ g0 @ s
    d = s_inv @ d0 @ s_inv.T
    target = s_inv @ lam @ s_inv.T
    return _finish_engineering(target, gamma, 0.5 * (d + d.T), tol)
