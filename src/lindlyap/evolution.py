"""Exact propagation of the first and second moment equations.

The moment equations xbar' = Gamma xbar + drive and V' = Gamma V + V Gamma^T + D
are linear with constant coefficients, so their flow over a time t is the
affine map x -> Phi x + c, V -> Phi V Phi^T + W with Phi = exp(Gamma t).  Phi,
c and W come from a matrix exponential of a Van Loan block (Van Loan, IEEE
TAC 23(3), 1978) whose generator is Gamma with `drive` appended as an extra
column, taken over a short time and squared up to t.  One such map covers a
whole recording stride and is applied once per recorded state, so the grid
step only chooses the recorded times, not the accuracy.  The covariance is
re-symmetrized after every recorded state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model import GaussianDynamics

__all__ = ["Trajectory", "evolve"]


@dataclass(frozen=True)
class Trajectory:
    """Recorded moments at increasing times (first axis indexes time)."""

    times: np.ndarray
    means: np.ndarray  # shape (len(times), 2n)
    cms: np.ndarray  # shape (len(times), 2n, 2n)

    @property
    def final_mean(self) -> np.ndarray:
        return self.means[-1]

    @property
    def final_cm(self) -> np.ndarray:
        return self.cms[-1]


def _flow(dyn: GaussianDynamics, t: float):
    """(Phi, c, W): the exact moment flow over a time t."""
    dim = dyn.drift_matrix.shape[0]
    gen = np.zeros((dim + 1, dim + 1))  # G: Gamma with `drive` appended as a column
    gen[:dim, :dim] = dyn.drift_matrix
    gen[:dim, dim] = dyn.drive
    source = np.zeros_like(gen)  # Q: D padded to the shape of G
    source[:dim, :dim] = dyn.diffusion
    # exp(s [[-G, Q], [0, G^T]]) = [[*, F], [0, exp(G s)^T]], and exp(G s) F is W over a time s.
    # The block also holds exp(-G s), whose growth swamps W unless ||G s|| is small, so the
    # map is built over s = t / 2^m with ||Gamma s||_1 < 1 and squared m times.
    m = max(0, int(np.frexp(t * np.linalg.norm(dyn.drift_matrix, 1))[1]))
    block = expm(t / 2**m * np.block([[-gen, source], [np.zeros_like(gen), gen.T]]))
    flow = block[dim + 1 :, dim + 1 :].T
    phi, c = flow[:dim, :dim], flow[:dim, dim]
    w = flow[:dim, :] @ block[: dim + 1, dim + 1 :][:, :dim]
    for _ in range(m):  # the flow over 2s from the flow over s
        phi, c, w = phi @ phi, phi @ c + c, phi @ w @ phi.T + w
    return phi, c, w


def evolve(
    dyn: GaussianDynamics,
    x0: np.ndarray,
    v0: np.ndarray,
    t_end: float,
    dt: float | None = None,
    record_every: int = 1,
) -> Trajectory:
    """Propagate the moments exactly from (x0, v0) up to t_end.

    The grid step is h = t_end / ceil(t_end / dt), with dt defaulting to
    min(1e-3, 0.05 / ||Gamma||_2).  It only sets the grid: states are
    recorded at the grid times k h with k a multiple of `record_every` (the
    final state is always recorded), and each one is the exact flow of the
    moment equations from the one before.  t_end and dt must be finite and
    positive, x0 and v0 finite.  Aborts if a recorded moment stops being
    finite.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    dim = dyn.drift_matrix.shape[0]
    if x.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x.shape}")
    if v.shape != (dim, dim):
        raise ValueError(f"v0 must have shape ({dim}, {dim}), got {v.shape}")
    for name, value in (("x0", x), ("v0", v)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    v = 0.5 * (v + v.T)

    if dt is None:
        dt = min(1e-3, 0.05 / max(np.linalg.norm(dyn.drift_matrix, 2), 1e-12))
    steps = max(1, math.ceil(t_end / dt))
    h = t_end / steps

    times = [0.0]
    means = [x]
    cms = [v]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        full, tail = divmod(steps, record_every)
        stride = _flow(dyn, record_every * h) if full else None
        partial = _flow(dyn, tail * h) if tail else None
        k = 0
        while k < steps:
            count = min(record_every, steps - k)
            p, c, w = stride if count == record_every else partial
            x = p @ x + c
            v = p @ v @ p.T + w
            v = 0.5 * (v + v.T)
            k += count
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                raise RuntimeError(f"moments diverged at step {k} (t = {k * h:.6g})")
            times.append(k * h)
            means.append(x)
            cms.append(v)

    return Trajectory(times=np.array(times), means=np.array(means), cms=np.array(cms))
