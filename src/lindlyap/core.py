"""Shared linear-algebra primitives: the symplectic form, the inertia counts of
a spectrum, the one scale rule of every tolerance, and the readers that turn
outside input into a number, a real array or a 2n x 2n matrix, refusing it
with a ValueError that names the field.

Phase-space vectors are ordered as x = (q_1, ..., q_n, p_1, ..., p_n): all
positions first, then all momenta.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "InertiaIndex",
    "symplectic_form",
    "hermitian_part",
    "check_hermitian",
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


def refuse_imaginary(given: np.ndarray, what: str) -> None:
    """Refuse an array with a nonzero imaginary part by a ValueError naming ``what``: a float conversion
    would drop that part with only a ComplexWarning.  A complex array whose imaginary part is zero passes."""
    if given.dtype.kind == "c" and given.imag.any():
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")


def read_real(value, what: str, form: str = "numeric") -> np.ndarray:
    """``value`` as a float array; a refusal is a ValueError naming ``what`` (non-numeric input is
    refused as not ``form``).  A complex value is read as its real part if its imaginary part is zero,
    and refused by :func:`refuse_imaginary` otherwise."""
    try:
        given = np.asarray(value)
        real = np.asarray(given.real if given.dtype.kind == "c" else value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be {form}: {exc}") from exc
    refuse_imaginary(given, what)
    return real


def read_matrix(value, what: str) -> np.ndarray:
    """``value`` as a real 2n x 2n float array, read by :func:`read_real`; a refusal is a ValueError
    naming ``what``."""
    m = read_real(value, what, "a numeric matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] % 2 or not m.size:
        raise ValueError(f"{what} must be 2n x 2n with n >= 1, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package, each relative to the size of what it compares.

    eig_zero_band: half-width of the band around zero inside which an eigenvalue counts as zero.
    stability_margin: a spectral abscissa must lie below -stability_margin * max |entry| of the drift
        matrix for it to count as asymptotically stable.
    residual_tol: tolerance on equation residuals (Lyapunov solves, Hermiticity checks,
        reconstruction identities).
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
_SMALLEST_NORMAL = float(np.finfo(float).tiny)  # below it a deviation is underflow noise, not error


def within(dev: float, rtol: float, *sizes: float) -> bool:
    """Whether dev <= rtol times the largest size of the quantities compared, floored only at the smallest
    normal float: the rule of every relative comparison.  A NaN dev fails."""
    return bool(dev <= rtol * max(*sizes, _SMALLEST_NORMAL))


def zero_band(eig: np.ndarray, tol: Tolerances, *sizes: float) -> float:
    """eig_zero_band times the size of eig and of ``sizes``, those of terms that can cancel in eig's matrix."""
    return tol.eig_zero_band * max(float(np.abs(eig).max()) if eig.size else 0.0, *sizes, _SMALLEST_NORMAL)


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


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, halved before the sum so that entries near the largest float cannot overflow.

    Entries already equal to their mirror are kept, so an exactly Hermitian m, subnormals included,
    comes back unchanged: halving would drop the last bit of a subnormal.
    """
    m = np.asarray(m)
    return np.where(m == m.conj().T, m, 0.5 * m + 0.5 * m.conj().T)


def check_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is Hermitian within tolerance and return its Hermitian part.

    The deviation ||m - m^dag||_inf is judged relative to ||m||_inf (:func:`within`).
    An empty matrix is refused, and one with a NaN or infinite entry is rejected as not finite.

    Fast gate: a nonempty, finite float or complex m that equals m^dag entry for entry passes every
    test below and is its own Hermitian part, so ``m.copy()`` is returned after one comparison and one
    finiteness pass, bit for bit the result of the full path.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    kind = m.dtype.kind
    if m.size and kind in "fc" and (m == (m.conj() if kind == "c" else m).T).all() and np.isfinite(m).all():
        return m.copy()
    if not m.size:
        raise ValueError(f"{what} is empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} is not finite: it has a NaN or infinite entry")
    dev, scale = np.abs(m - m.conj().T).max(), np.abs(m).max()
    if not within(dev, tol.residual_tol, scale):
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

    def __str__(self) -> str:
        return f"(+{self.positive}, 0:{self.zero}, -{self.negative})"


def classify_spectrum(eig: np.ndarray, tol: Tolerances = DEFAULT_TOL, *sizes) -> InertiaIndex:
    """The inertia of a Hermitian matrix from its eigenvalues: how many lie above, inside and below
    the zero band (:func:`zero_band`, of eig and ``sizes``), inside which an eigenvalue counts as zero.

    The eigenvalues may come in any order: sortedness is not assumed.  They are read as the Python
    floats of one ``eig.tolist()``, sorted, and counted by bisection, which for the few eigenvalues of
    a verdict is cheaper than numpy reductions.  As in :func:`zero_band`, a NaN eigenvalue makes the
    band NaN, so that every eigenvalue counts as zero.
    """
    vals = sorted(eig.tolist())
    top = max(-vals[0], vals[-1]) if vals else 0.0
    # a NaN sorts anywhere, so it is found by the sum, which is NaN also for +inf with -inf (a band of inf)
    if math.isnan(sum(vals)):
        top = math.nan
    band = tol.eig_zero_band * max(top, *sizes, _SMALLEST_NORMAL)
    # every comparison with a NaN or infinite band is false, so bisection then counts nothing beyond it
    negative = bisect.bisect_left(vals, -band)
    positive = len(vals) - bisect.bisect_right(vals, band)
    return InertiaIndex(positive=positive, zero=len(vals) - positive - negative, negative=negative)
