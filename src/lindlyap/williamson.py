"""Normal forms of covariance matrices and reservoir engineering.

Any positive definite covariance matrix M can be brought to diagonal form by
a symplectic congruence, S M S^T = Lambda with Lambda = diag(mu, mu); the mu
are the symplectic eigenvalues.

Reservoir engineering needs no normal form: a covariance V is the unique
steady state of the pair (-I/2, V), whose noise Gram matrix (V - iJ)/2 is
PSD exactly when V obeys the uncertainty relation V + iJ >= 0, so every
physical target is reached by a dissipator with drift -I/2 (Koga & Yamamoto,
PRA 85, 022103 (2012)).  Transporting a solved base pair by a symplectic
congruence, the other route here, reaches the same targets from other drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from . import lyapunov
from .core import DEFAULT_TOL, Tolerances, check_hermitian, read_matrix, symplectic_form
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


def symplectic_spectrum(m: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite matrix, descending.

    These are the moduli of the (purely imaginary) eigenvalues of J M, each
    taken once.  A covariance matrix is physical iff all of them are >= 1.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ m)
    mu = np.sort(np.abs(ev.imag))[::2]  # pairs +-i mu
    return mu[::-1].copy()


def is_symplectic(w: np.ndarray) -> bool:
    """Whether W J W^T = J within STRUCTURE_TOL of max(1, max|W|^2), in max-norm.

    Max-norms do not square the entries of W J W^T - J, which are of size eps max|W|^2, so the
    test stays finite as long as W J W^T does.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2:
        return False
    j = symplectic_form(w.shape[0] // 2)
    dev = np.abs(w @ j @ w.T - j).max()
    return bool(dev <= STRUCTURE_TOL * max(1.0, np.abs(w).max() ** 2))


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic congruence S with S M S^T = diag(mu, mu), mu ascending."""

    s: np.ndarray
    mu: np.ndarray

    @property
    def lambda_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([self.mu, self.mu]))


def _matrix_roots(m: np.ndarray):
    w, u = np.linalg.eigh(m)
    if w.min() <= 0:
        raise ValueError(f"matrix must be positive definite, smallest eigenvalue {w.min():.6e}")
    root = (u * np.sqrt(w)) @ u.T
    inv_root = (u / np.sqrt(w)) @ u.T
    return root, inv_root


def williamson_decompose(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> WilliamsonDecomposition:
    """Diagonalize a positive definite 2n x 2n matrix by symplectic congruence.

    Works through the real Schur form of M^(1/2) J M^(1/2), which is block
    diagonal with 2 x 2 antisymmetric blocks carrying the symplectic
    eigenvalues; the congruence is assembled from the Schur basis and both
    defining identities are verified before returning.
    """
    m = check_hermitian(read_matrix(m, "matrix"), tol)
    n = m.shape[0] // 2
    j = symplectic_form(n)

    root, inv_root = _matrix_roots(m)
    k = root @ j @ root
    k = 0.5 * (k - k.T)

    t, o = schur(k, output="real")
    mu = np.empty(n)
    for i in range(n):
        val = 0.5 * (t[2 * i, 2 * i + 1] - t[2 * i + 1, 2 * i])
        if val < 0:
            o[:, [2 * i, 2 * i + 1]] = o[:, [2 * i + 1, 2 * i]]
            val = -val
        mu[i] = val

    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    o = o[:, cols]
    # interleaved (q_1, p_1, ...) Schur pairs -> block (q..., p...) layout
    o_block = o[:, np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]]

    lam = np.concatenate([mu, mu])
    s = (np.sqrt(lam)[:, None] * o_block.T) @ inv_root

    scale = max(1.0, np.abs(m).max())
    err_m = np.abs(s @ m @ s.T - np.diag(lam)).max()
    err_j = np.abs(s @ j @ s.T - j).max()
    if err_m > 1e3 * tol.residual_tol * scale or err_j > 1e3 * tol.residual_tol:
        raise ValueError(
            f"decomposition validation failed: |S M S^T - Lambda| = {err_m:.3e}, "
            f"|S J S^T - J| = {err_j:.3e}"
        )
    return WilliamsonDecomposition(s=s, mu=mu)


@dataclass(frozen=True)
class EngineeredReservoir:
    """A dissipator built to make `target` the unique stationary covariance."""

    target: np.ndarray
    drift_matrix: np.ndarray
    diffusion: np.ndarray
    realization: LindbladRealization
    residual: float  # stationary-equation residual of target under the pair
    steady_cm: np.ndarray  # the pair's stationary covariance, solved to check it meets target


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
    scale = max(1.0, np.abs(target).max())
    dev = np.abs(cm - target).max()
    if dev > 1e3 * tol.residual_tol * scale:
        raise EngineeringError(f"engineered pair misses the target by {dev:.3e}")
    return EngineeredReservoir(
        target=target,
        drift_matrix=gamma,
        diffusion=d,
        realization=realization,
        residual=lyapunov.residual(problem, target),
        steady_cm=cm,
    )


def physical_spectrum(target: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Symplectic eigenvalues nu of a covariance matrix V, descending, refusing an unphysical V.

    Each mode is balanced to equal q and p variance by a symplectic scaling, which leaves nu unchanged
    and makes an uncorrelated squeezed mode well conditioned.  The nu of the balanced B are the
    positive eigenvalues of i B^(1/2) J B^(1/2); a relative change eps in B moves each by at most
    eps cond(B) max(nu), and err is 2n times that.  V is refused when a variance is not positive, B
    is indefinite beyond the zero band, or min(nu) + err < 1 - eig_zero_band.  None is returned when
    err exceeds the zero band; once cond(B) ~ 1/eps, rounding hides whether V is physical and V is
    not refused.
    """
    v = check_hermitian(read_matrix(target, "target covariance matrix"), tol, what="target covariance matrix")
    n, var = len(v) // 2, np.diag(v)
    if var.min() <= 0:
        raise EngineeringError(f"target is not physical: it has variance {var.min():.17g} <= 0")
    d = var[n:] ** 0.25 / var[:n] ** 0.25
    d = np.concatenate([d, 1.0 / d])
    b = d[:, None] * v * d
    lam, u = np.linalg.eigh(b)
    if lam[0] < -tol.eig_zero_band * lam[-1]:
        raise EngineeringError("target is not physical: it is not positive semidefinite")
    if lam[0] <= 0:
        return None
    root = (u * np.sqrt(lam)) @ u.T
    nu = np.linalg.eigvalsh(1j * (root @ symplectic_form(n) @ root))[: n - 1 : -1]  # the n positive, descending
    err = 2 * n * np.finfo(float).eps * nu[0] * lam[-1] / lam[0]
    if nu[-1] + err < 1.0 - tol.eig_zero_band:
        raise EngineeringError(f"target is not physical: smallest symplectic eigenvalue {nu[-1]:.17g} < 1")
    return nu if err <= tol.eig_zero_band * max(1.0, nu[0]) else None


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
    s = np.asarray(transform, dtype=float)
    if not is_symplectic(s):
        raise EngineeringError("transform must be symplectic")
    if alpha < 1.0 - tol.eig_zero_band:
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
    s = np.asarray(transform, dtype=float)
    if not is_symplectic(s):
        raise EngineeringError("transform must be symplectic")
    lam = np.asarray(base_cm, dtype=float)
    g0 = np.asarray(base_drift, dtype=float)
    d0 = np.asarray(base_diffusion, dtype=float)
    res = np.abs(g0 @ lam + lam @ g0.T + d0).max()
    if res > tol.residual_tol * max(1.0, np.abs(d0).max()):
        raise EngineeringError(
            f"base covariance does not solve the base stationary equation, residual {res:.3e}"
        )
    s_inv = np.linalg.inv(s)
    gamma = s_inv @ g0 @ s
    d = s_inv @ d0 @ s_inv.T
    target = s_inv @ lam @ s_inv.T
    return _finish_engineering(target, gamma, 0.5 * (d + d.T), tol)
