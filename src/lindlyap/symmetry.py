"""Symmetries of the moment dynamics: covariance transforms, invariance
detection, structural templates for steady states, and the isotropic
(Gibbs-like) reservoir condition.

A linear change of frame x -> W x acts on the dynamics by
Gamma -> W Gamma W^-1 and D -> W D W^T, and on covariance matrices by
congruence.  If an invertible W leaves both Gamma and D fixed, the unique
stationary covariance of a stable model inherits the symmetry, which confines
it to a template structure that can be checked without solving.  Both
invariance and isotropy are read off the pair (Gamma, D) alone: this module
never reaches the Lyapunov solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Tolerances, read_matrix, symplectic_form, within
from .model import GaussianDynamics
from .williamson import STRUCTURE_TOL, is_symplectic

__all__ = [
    "CovarianceTransform",
    "InvarianceReport",
    "StructureTemplate",
    "transform_triple",
    "invariance_check",
    "match_template",
    "gibbs_condition",
]


def _close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return within(np.linalg.norm(a - b), rtol, np.linalg.norm(b))


def _invertible(w, what: str, form: str) -> np.ndarray:
    """``w`` as a finite real 2n x 2n matrix (:func:`~lindlyap.core.read_matrix`) of full numerical rank,
    so at any scale; other input is refused by a ValueError naming ``what``."""
    w = read_matrix(w, what, form=form)
    if np.linalg.matrix_rank(w) < len(w):
        raise ValueError(f"{what} must be invertible")
    return w


@dataclass(frozen=True)
class CovarianceTransform:
    """An invertible frame change (by numerical rank, so at any scale), with its
    orthogonality and symplecticity (:func:`~lindlyap.williamson.is_symplectic`) flags."""

    matrix: np.ndarray
    is_orthogonal: bool = field(init=False)
    is_symplectic: bool = field(init=False)

    def __post_init__(self):
        w = _invertible(self.matrix, "transform", "a numeric matrix")
        object.__setattr__(self, "matrix", w)
        object.__setattr__(self, "is_orthogonal", _close(w @ w.T, np.eye(len(w)), STRUCTURE_TOL))
        object.__setattr__(self, "is_symplectic", is_symplectic(w))


def transform_triple(
    gamma: np.ndarray,
    diffusion: np.ndarray,
    w: np.ndarray,
    cm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Push (drift, diffusion[, covariance]) through the frame change x -> W x.

    Returns (W Gamma W^-1, W D W^T, W V W^T).  The stationary equation is
    covariant under this action: if V solves the original pair, W V W^T
    solves the transformed one.  W must be a finite, invertible real 2n x 2n matrix, and gamma,
    diffusion and cm finite real matrices of its size.
    """
    w = _invertible(w, "w", "numeric")
    gamma, diffusion = read_matrix(gamma, "gamma", len(w)), read_matrix(diffusion, "diffusion", len(w))
    cm = None if cm is None else read_matrix(cm, "cm", len(w))
    gamma_t = w @ gamma @ np.linalg.inv(w)
    diffusion_t = w @ diffusion @ w.T
    cm_t = None if cm is None else w @ cm @ w.T
    return gamma_t, diffusion_t, cm_t


@dataclass(frozen=True)
class InvarianceReport:
    """Whether W leaves Gamma and D fixed; ``cm_invariant`` is their conjunction, read off the pair
    with no solve.  For a stable model it asserts W V W^T = V of the stationary covariance: exactly
    for an exactly invariant pair, otherwise as closely as the conditioning of the Lyapunov
    operator allows."""

    gamma_invariant: bool
    diffusion_invariant: bool
    cm_invariant: bool


def invariance_check(gamma: np.ndarray, diffusion: np.ndarray, w: np.ndarray) -> InvarianceReport:
    """Check whether W leaves the pair (Gamma, D) fixed, within STRUCTURE_TOL relative.

    The stationary equation is covariant under W (:func:`transform_triple`), so when both hold
    the unique stationary covariance of a stable model inherits the symmetry; that is decided
    from the pair, with no stability check and no solve.
    """
    gamma_t, diffusion_t, _ = transform_triple(gamma, diffusion, w)
    g_inv = _close(gamma_t, gamma, STRUCTURE_TOL)
    d_inv = _close(diffusion_t, diffusion, STRUCTURE_TOL)
    return InvarianceReport(gamma_invariant=g_inv, diffusion_invariant=d_inv, cm_invariant=g_inv and d_inv)


class StructureTemplate(enum.Enum):
    """Steady-state matrix patterns enforced by common symmetries."""

    BLOCK_DIAGONAL_QP = "block_diagonal_qp"  # no qp correlations
    SWAP_SYMMETRIC = "swap_symmetric"  # equal diagonal blocks, equal off-diagonal blocks
    KN_INVARIANT = "kn_invariant"  # multiple of identity plus multiple of J
    LOCAL_ROTATION_INVARIANT = "local_rotation_invariant"  # [[A, B], [-B, A]], A and B diagonal
    J_INVARIANT = "j_invariant"  # J M J^T = M


def match_template(m: np.ndarray, template: StructureTemplate) -> bool:
    """Decide whether a 2n x 2n matrix fits a structural template.

    Deviations are measured in Frobenius norm, within STRUCTURE_TOL of ||m||_F.
    """
    m = read_matrix(m, "matrix", finite=False)  # a NaN or infinite entry fits no template
    n = m.shape[0] // 2
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
    return within(dev, STRUCTURE_TOL, np.linalg.norm(m))


def gibbs_condition(dyn: GaussianDynamics, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """Detect an isotropic stationary state directly from the pair, with no solve.

    Returns alpha such that D = -alpha (Gamma + Gamma^T) entrywise within ``tol.residual_tol``
    relative to max|D|, the candidate fixed by traces; returns None when no such alpha exists.
    For a stable model V = alpha I then solves the stationary equation: exactly for an exactly
    isotropic pair, otherwise as closely as the conditioning of the Lyapunov operator allows.
    """
    gamma = dyn.drift_matrix
    d = dyn.diffusion
    tr_sym = 2.0 * np.trace(gamma)
    if tr_sym >= 0.0:
        return None
    alpha = -np.trace(d) / tr_sym
    dev = np.abs(d + alpha * (gamma + gamma.T)).max()
    if not within(dev, tol.residual_tol, np.abs(d).max()):
        return None
    return float(alpha)
