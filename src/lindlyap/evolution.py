"""Exact propagation of the first and second moment equations.

The moment equations xbar' = Gamma xbar + drive and V' = Gamma V + V Gamma^T + D
are linear with constant coefficients, so their flow over a time t is the
affine map x -> Phi x + c, V -> Phi V Phi^T + W with Phi = exp(Gamma t).  Phi,
c and W come from the exact finite-horizon flow of :mod:`lindlyap.lyapunov`,
one matrix exponential of a Van Loan block (Van Loan, IEEE TAC 23(3), 1978)
taken over a short time and squared up to t, whose generator is Gamma with
`drive` appended as an extra column.  One such map covers a whole recording
stride, so the grid step only chooses the recorded times, not the accuracy.
The recorded states are filled by doubling: the map over m strides takes the
block of states [0, m) to the block [m, 2m) and is then squared into the map
over 2m strides, so K recorded states cost O(log K) array operations and each
passes through at most log2 K maps.  A block costs one product for the means
and, for the covariances, one stacked product Phi V and one flat product of
all its rows by Phi^T, each written straight into the recorded arrays.  The
covariance is re-symmetrized at every recorded state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lyapunov
from .core import DEFAULT_TOL, check_hermitian, read_integer, read_matrix, read_number, read_vector
from .model import GaussianDynamics

__all__ = ["Trajectory", "evolve"]

# the default grid has no more than about this many steps over the horizon, whatever the rate scale
MAX_DEFAULT_STEPS = 10**6


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
    """The exact moment flow over a time t, as the pair (E, W) of the generator Gamma with
    `drive` appended as a column (so E holds Phi and c) and the diffusion padded to match."""
    dim = dyn.drift_matrix.shape[0]
    gen = np.zeros((dim + 1, dim + 1))
    gen[:dim, :dim] = dyn.drift_matrix
    gen[:dim, dim] = dyn.drive
    source = np.zeros_like(gen)
    source[:dim, :dim] = dyn.diffusion
    return lyapunov._flow(gen, source, t)


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
    min(1e-3, 0.05 / ||Gamma||_2) but not below t_end / MAX_DEFAULT_STEPS, so
    a slow model's long default horizon does not grow its step count past
    about MAX_DEFAULT_STEPS.  The step only sets the grid: states are recorded
    at the grid times k h with k a multiple of `record_every` (the final state
    is always recorded), and each one is the exact flow of the moment
    equations from an earlier recorded state, over a power of two
    strides.  A map whose square would not be finite (a growing mode over a
    long time) is not squared further, but applied block by block, so an
    unexcited unstable mode does not poison the trajectory.  t_end and dt
    must be finite and positive, record_every an integer >= 1, and x0 and v0
    finite and real (a zero imaginary part is dropped).  v0 must be symmetric
    within the default residual_tol, as a --cm document is, and its symmetric
    part is used.  Aborts, naming the first recorded step, if a recorded
    moment stops being finite.
    """
    t_end = read_number(t_end, "t_end", "positive")
    if dt is not None:
        dt = read_number(dt, "dt", "positive")
    record_every = read_integer(record_every, "record_every", 1)
    dim = dyn.drift_matrix.shape[0]
    x, v = read_vector(x0, "x0", dim), check_hermitian(read_matrix(v0, "v0", dim), DEFAULT_TOL, what="v0")

    if dt is None:
        dt = min(1e-3, 0.05 / max(np.linalg.norm(dyn.drift_matrix, 2), 1e-12))
        dt = max(dt, t_end / MAX_DEFAULT_STEPS)
    steps = max(1, math.ceil(t_end / dt))
    h = t_end / steps

    full, tail = divmod(steps, record_every)
    ks = np.arange(0, steps + 1, record_every)  # grid index of each recorded state
    if tail:
        ks = np.append(ks, steps)
    means = np.empty((len(ks), dim))
    cms = np.empty((len(ks), dim, dim))
    means[0], cms[0] = x, v

    def advance(flow, src, dst, size):
        """Write states [dst, dst + size) as the flow of states [src, src + size).  The means
        take one product by Phi^T; the covariances are (Phi V) Phi^T, a stacked product and
        then one flat product of all the block's rows by Phi^T.  Both products by Phi^T write
        straight into the recorded arrays."""
        e, w = flow
        phi, c, w = e[:dim, :dim], e[:dim, dim], w[:dim, :dim]
        # out= writes in place: the source block ends at or before dst, so the two never
        # overlap, and cms is C-contiguous, so the reshaped destination is a view of it
        xs, vs = means[dst : dst + size], cms[dst : dst + size]
        np.matmul(means[src : src + size], phi.T, out=xs)
        xs += c
        left = np.matmul(phi, cms[src : src + size])
        np.matmul(left.reshape(-1, dim), phi.T, out=vs.reshape(-1, dim))
        vs += w
        np.add(vs, vs.transpose(0, 2, 1), out=left)
        np.multiply(left, 0.5, out=vs)
        if not (np.isfinite(xs).all() and np.isfinite(vs).all()):
            finite = np.isfinite(xs).all(axis=1) & np.isfinite(vs).all(axis=(1, 2))
            k = ks[dst + int(np.argmin(finite))]
            raise RuntimeError(f"moments diverged at step {k} (t = {k * h:.6g})")

    with np.errstate(over="ignore", invalid="ignore"):  # `advance` reports divergence
        if full:
            # states [m, 2m) are the m-stride map applied to states [0, m), and the
            # 2m-stride map is its square; once a square would not be finite, the
            # largest finite map goes on filling one block of m states at a time
            flow, m, done, doubling = _flow(dyn, record_every * h), 1, 1, True
            while done <= full:
                size = min(m, full + 1 - done)
                advance(flow, done - m, done, size)
                done += size
                if doubling and done <= full:
                    wide = lyapunov._square(*flow)
                    doubling = all(np.isfinite(a).all() for a in wide)
                    if doubling:
                        flow, m = wide, 2 * m
        if tail:
            advance(_flow(dyn, tail * h), full, full + 1, 1)

    return Trajectory(times=ks * h, means=means, cms=cms)
