"""Symmetries of the moment dynamics: covariance transforms, invariance
detection, structural templates for steady states, and the isotropic
(Gibbs-like) reservoir condition.

A linear change of frame x -> W x acts on the dynamics by
Gamma -> W Gamma W^-1 and D -> W D W^T, and on covariance matrices by
congruence.  If an invertible W leaves both Gamma and D fixed, the unique
stationary covariance of a stable model inherits the symmetry, which confines
it to a template structure that can be checked without solving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import lyapunov
from .core import DEFAULT_TOL, Tolerances, symplectic_form
from .model import GaussianDynamics, schur_form, stability_check

__all__ = [
    "CovarianceTransform",
    "InvarianceReport",
    "StructureTemplate",
    "transform_triple",
    "invariance_check",
    "match_template",
    "gibbs_condition",
    "symplectic_rotation",
    "local_rotation",
    "rotation_from_unitary",
]


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, np.linalg.norm(b))
    return float(np.linalg.norm(a - b) / scale)


@dataclass(frozen=True)
class CovarianceTransform:
    """An invertible frame change, with its orthogonality/symplecticity flags."""

    matrix: np.ndarray
    is_orthogonal: bool = field(init=False)
    is_symplectic: bool = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2:
            raise ValueError(f"transform must be 2n x 2n, got shape {w.shape}")
        if abs(np.linalg.det(w)) < 1e-12:
            raise ValueError("transform must be invertible")
        n = w.shape[0] // 2
        j = symplectic_form(n)
        object.__setattr__(self, "matrix", w)
        object.__setattr__(self, "is_orthogonal", _rel_dev(w @ w.T, np.eye(2 * n)) < 1e-9)
        object.__setattr__(self, "is_symplectic", _rel_dev(w @ j @ w.T, j) < 1e-9)


def transform_triple(
    gamma: np.ndarray,
    diffusion: np.ndarray,
    w: np.ndarray,
    cm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Push (drift, diffusion[, covariance]) through the frame change x -> W x.

    Returns (W Gamma W^-1, W D W^T, W V W^T).  The stationary equation is
    covariant under this action: if V solves the original pair, W V W^T
    solves the transformed one.
    """
    w = np.asarray(w, dtype=float)
    gamma_t = w @ gamma @ np.linalg.inv(w)
    diffusion_t = w @ diffusion @ w.T
    cm_t = None if cm is None else w @ cm @ w.T
    return gamma_t, diffusion_t, cm_t


@dataclass(frozen=True)
class InvarianceReport:
    gamma_invariant: bool
    diffusion_invariant: bool
    cm_invariant: bool  # implied by the two above for a stable model


def invariance_check(
    gamma: np.ndarray,
    diffusion: np.ndarray,
    w: np.ndarray,
    rel_tol: float = 1e-9,
    tol: Tolerances = DEFAULT_TOL,
) -> InvarianceReport:
    """Check whether W leaves the pair (Gamma, D) fixed.

    When both hold and Gamma is stable, the implied invariance W V W^T = V of
    the stationary covariance is verified on the actual solution as an
    internal consistency check.
    """
    gamma_t, diffusion_t, _ = transform_triple(gamma, diffusion, w)
    g_inv = _rel_dev(gamma_t, gamma) <= rel_tol
    d_inv = _rel_dev(diffusion_t, diffusion) <= rel_tol
    implied = g_inv and d_inv
    if implied:
        form = schur_form(gamma)  # one factorization serves the stability check and the solve
        if stability_check(form, tol).is_stable:
            cm = lyapunov.solve(lyapunov.LyapunovProblem(form, diffusion), tol=tol)
            dev = _rel_dev(np.asarray(w) @ cm @ np.asarray(w).T, cm)
            if dev > max(rel_tol, 1e3 * tol.residual_tol):
                raise RuntimeError(
                    f"invariant pair produced a non-invariant stationary covariance "
                    f"(relative deviation {dev:.3e}); this should be impossible"
                )
    return InvarianceReport(gamma_invariant=g_inv, diffusion_invariant=d_inv, cm_invariant=implied)


class StructureTemplate(enum.Enum):
    """Steady-state matrix patterns enforced by common symmetries."""

    BLOCK_DIAGONAL_QP = "block_diagonal_qp"  # no qp correlations
    SWAP_SYMMETRIC = "swap_symmetric"  # equal diagonal blocks, equal off-diagonal blocks
    KN_INVARIANT = "kn_invariant"  # multiple of identity plus multiple of J
    LOCAL_ROTATION_INVARIANT = "local_rotation_invariant"  # [[A, B], [-B, A]], A and B diagonal
    J_INVARIANT = "j_invariant"  # J M J^T = M


def match_template(m: np.ndarray, template: StructureTemplate, rel_tol: float = 1e-9) -> bool:
    """Decide whether a 2n x 2n matrix fits a structural template.

    Deviations are measured in Frobenius norm relative to max(1, ||m||_F).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {m.shape}")
    n = m.shape[0] // 2
    scale = max(1.0, np.linalg.norm(m))
    a, b = m[:n, :n], m[:n, n:]
    c, e = m[n:, :n], m[n:, n:]

    if template is StructureTemplate.BLOCK_DIAGONAL_QP:
        dev = np.sqrt(np.linalg.norm(b) ** 2 + np.linalg.norm(c) ** 2)
    elif template is StructureTemplate.SWAP_SYMMETRIC:
        dev = np.sqrt(np.linalg.norm(a - e) ** 2 + np.linalg.norm(b - c) ** 2)
    elif template is StructureTemplate.KN_INVARIANT:
        j = symplectic_form(n)
        m1 = np.trace(m) / (2 * n)
        m2 = np.trace(j.T @ m) / (2 * n)
        dev = np.linalg.norm(m - m1 * np.eye(2 * n) - m2 * j)
    elif template is StructureTemplate.LOCAL_ROTATION_INVARIANT:
        dev = np.sqrt(
            np.linalg.norm(a - e) ** 2
            + np.linalg.norm(b + c) ** 2
            + np.linalg.norm(a - np.diag(np.diag(a))) ** 2
            + np.linalg.norm(b - np.diag(np.diag(b))) ** 2
        )
    elif template is StructureTemplate.J_INVARIANT:
        j = symplectic_form(n)
        dev = np.linalg.norm(j @ m @ j.T - m)
    else:
        raise ValueError(f"unknown template {template!r}")
    return bool(dev <= rel_tol * scale)


def gibbs_condition(dyn: GaussianDynamics, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """Detect an isotropic stationary state directly from the pair.

    Returns alpha such that D = -alpha (Gamma + Gamma^T) entrywise, which
    forces the stationary covariance to be alpha times the identity; returns
    None when no such alpha exists.  The candidate is fixed by traces, and for
    a stable model the implied solution is verified.
    """
    gamma = dyn.drift_matrix
    d = dyn.diffusion
    tr_sym = 2.0 * np.trace(gamma)
    if tr_sym >= 0.0:
        return None
    alpha = -np.trace(d) / tr_sym
    dev = np.abs(d + alpha * (gamma + gamma.T)).max()
    if dev > tol.residual_tol * max(1.0, np.abs(d).max()):
        return None
    if stability_check(dyn, tol).is_stable:
        cm = lyapunov.steady_covariance(dyn, tol)
        dev = np.abs(cm - alpha * np.eye(gamma.shape[0])).max()
        if dev > 1e3 * tol.residual_tol * max(1.0, alpha):
            raise RuntimeError(
                f"isotropic condition held entrywise but the solved covariance "
                f"deviates from alpha I by {dev:.3e}"
            )
    return float(alpha)


def symplectic_rotation(y: np.ndarray, z: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Build the orthogonal symplectic matrix [[Y, Z], [-Z, Y]].

    Requires Y Y^T + Z Z^T = I and Y Z^T symmetric, i.e. Y + i Z unitary.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("Y and Z must be square matrices of equal shape")
    n = y.shape[0]
    dev = max(
        np.abs(y @ y.T + z @ z.T - np.eye(n)).max(),
        np.abs(y @ z.T - z @ y.T).max(),
    )
    if dev > rel_tol * max(1.0, np.abs(y).max(), np.abs(z).max()):
        raise ValueError(f"Y + iZ is not unitary, deviation {dev:.3e}")
    return np.block([[y, z], [-z, y]])


def local_rotation(angles) -> np.ndarray:
    """Independent phase rotation of each mode (diagonal Y and Z blocks)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return symplectic_rotation(np.diag(np.cos(angles)), np.diag(np.sin(angles)))


def rotation_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic matrix corresponding to an n x n unitary."""
    u = np.asarray(u, dtype=complex)
    return symplectic_rotation(u.real, u.imag)
