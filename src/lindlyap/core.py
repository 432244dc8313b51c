"""Shared linear-algebra primitives: phase-space conventions, inertia counts,
definiteness verdicts, tolerance handling, and the readers that turn outside
input into a number or a 2n x 2n matrix, refusing it with a ValueError that
names the field.

Phase-space vectors are ordered as x = (q_1, ..., q_n, p_1, ..., p_n): all
positions first, then all momenta.  Helpers are provided to convert to and
from the interleaved ordering (q_1, p_1, q_2, p_2, ...).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Tolerances",
    "Layout",
    "InertiaIndex",
    "Definiteness",
    "symplectic_form",
    "reorder",
    "hermitian_part",
    "check_hermitian",
    "inertia",
    "psd_verdict",
    "classify_spectrum",
    "read_number",
    "read_matrix",
]


def read_number(value, what: str) -> float:
    """``float(value)``: the same values are accepted, and a refusal is a ValueError naming ``what``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a number, got {value!r}") from exc


def read_matrix(value, what: str) -> np.ndarray:
    """``value`` as a real 2n x 2n float array; a refusal is a ValueError naming ``what``."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a numeric matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] % 2:
        raise ValueError(f"{what} must be 2n x 2n, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    eig_zero_band: relative half-width of the band around zero inside which an
        eigenvalue counts as zero.  The absolute band is
        eig_zero_band * max(1, max |eigenvalue|) of the matrix at hand.
    stability_margin: a spectral abscissa must lie below -stability_margin for
        a generator to count as asymptotically stable.
    residual_tol: relative tolerance on equation residuals (Lyapunov solves,
        Hermiticity checks, reconstruction identities).
    """

    eig_zero_band: float = 1e-9
    stability_margin: float = 1e-10
    residual_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = read_number(getattr(self, f.name), f"tolerance {f.name}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {f.name} must be finite and nonnegative, got {value!r}")
            object.__setattr__(self, f.name, value)


DEFAULT_TOL = Tolerances()


class Layout(enum.Enum):
    """Orderings of the 2n phase-space coordinates."""

    BLOCK_QP = "block_qp"  # (q_1..q_n, p_1..p_n)
    INTERLEAVED_QP = "interleaved_qp"  # (q_1, p_1, q_2, p_2, ...)


@functools.lru_cache(maxsize=64)
def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form J = [[0, I], [-I, 0]] (block layout).

    The result is built once per n and shared by every caller, so it is
    read-only; copy it before modifying it.
    """
    if n < 1:
        raise ValueError(f"need at least one mode, got n={n}")
    z = np.zeros((n, n))
    i = np.eye(n)
    j = np.block([[z, i], [-i, z]])
    j.flags.writeable = False
    return j


def _block_to_interleaved_perm(n: int) -> np.ndarray:
    # perm[k] = index in block layout of the k-th interleaved coordinate
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return perm


def reorder(m: np.ndarray, src: Layout, dst: Layout) -> np.ndarray:
    """Re-index a 2n-vector or 2n x 2n matrix between coordinate layouts."""
    m = np.asarray(m)
    if m.shape[0] % 2:
        raise ValueError(f"phase-space dimension must be even, got {m.shape[0]}")
    if src == dst:
        return m.copy()
    n = m.shape[0] // 2
    perm = _block_to_interleaved_perm(n)
    if src == Layout.BLOCK_QP:
        take = perm
    else:
        take = np.argsort(perm)
    if m.ndim == 1:
        return m[take]
    if m.ndim == 2 and m.shape[0] == m.shape[1]:
        return m[np.ix_(take, take)]
    raise ValueError(f"expected a 2n vector or 2n x 2n matrix, got shape {m.shape}")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, halved before the sum so that entries near the largest float cannot overflow."""
    m = np.asarray(m)
    return 0.5 * m + 0.5 * m.conj().T


def check_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is Hermitian within tolerance and return its Hermitian part.

    The deviation is measured as ||m - m^dag||_inf relative to max(1, ||m||_inf).
    A matrix with a NaN or infinite entry is rejected as not finite.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    scale = max(1.0, np.abs(m).max()) if m.size else 1.0
    bound = tol.residual_tol * scale
    # a NaN entry makes dev NaN, which fails `<=`; an infinite one makes the bound infinite
    if not (dev <= bound < math.inf) and not np.isfinite(m).all():
        raise ValueError(f"{what} is not finite: it has a NaN or infinite entry")
    if not (dev <= bound):
        raise ValueError(
            f"{what} is not Hermitian (symmetric if real): ||m - m^dag||_inf = {dev:.3e} "
            f"exceeds {tol.residual_tol:.1e} * {scale:.3e}"
        )
    return hermitian_part(m)


@dataclass(frozen=True)
class InertiaIndex:
    """Signature of a Hermitian matrix: eigenvalue counts by sign."""

    positive: int
    zero: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.zero + self.negative

    def __str__(self) -> str:
        return f"(+{self.positive}, 0:{self.zero}, -{self.negative})"


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_MARGINAL = "positive_semidefinite_marginal"
    INDEFINITE = "indefinite"


def classify_spectrum(eig: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[InertiaIndex, Definiteness]:
    """Inertia and definiteness of a Hermitian matrix from its eigenvalues, by the
    zero band and marginality rules of :func:`inertia` and :func:`psd_verdict`."""
    band = tol.eig_zero_band * max(1.0, float(np.abs(eig).max()) if eig.size else 0.0)
    positive = int(np.count_nonzero(eig > band))
    negative = int(np.count_nonzero(eig < -band))
    idx = InertiaIndex(positive=positive, zero=eig.size - positive - negative, negative=negative)
    if idx.negative > 0:
        return idx, Definiteness.INDEFINITE
    if idx.zero > 0:
        return idx, Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL
    return idx, Definiteness.POSITIVE_DEFINITE


def inertia(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> InertiaIndex:
    """Count positive, zero, and negative eigenvalues of a Hermitian matrix.

    Eigenvalues within eig_zero_band * max(1, max |eig|) of zero count as zero.
    Raises ValueError if ``m`` is not Hermitian within residual_tol.
    """
    return classify_spectrum(np.linalg.eigvalsh(check_hermitian(m, tol)), tol)[0]


def psd_verdict(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Definiteness:
    """Classify a Hermitian matrix as PD, marginally PSD, or indefinite.

    Marginal means no eigenvalue below the zero band but at least one inside it.
    """
    return classify_spectrum(np.linalg.eigvalsh(check_hermitian(m, tol)), tol)[1]
