"""Shared linear-algebra primitives: the symplectic form, the inertia counts of
a spectrum, the one scale rule of every tolerance, and the input contract.

Every public argument is read here, by one reader per shape, and refused with a
ValueError whose message starts with the field's name: :func:`read_number` (a
number, optionally finite with a lower bound), :func:`read_integer`,
:func:`read_vector` (a real or complex vector of a given length),
:func:`read_matrix` (a nonempty square matrix: a real 2n x 2n one, or a float or
complex one, of a given size if one is asked for), :func:`read_choice` (one of
some strings) and :func:`require_finite`,
with :func:`read_real`, the array conversion beneath them.  The refusal phrases
("must be a number", "must be finite", "is not finite", "must be numeric",
"must be square", ...) are raised in this module alone, but for two bound checks
that keep their own wording: a catalog rate's "must be >= 0" and the CLI's
"--v0-scale must be nonnegative".

Phase-space vectors are ordered as x = (q_1, ..., q_n, p_1, ..., p_n): all
positions first, then all momenta.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import numbers
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
    "read_integer",
    "read_vector",
    "read_matrix",
    "read_choice",
    "require_finite",
]


_BOUNDS = {"finite": "finite", "nonnegative": "finite and nonnegative", "positive": "finite and positive"}


def read_number(value, what: str, bound: str | None = None, *, real: bool = True) -> float | complex:
    """``float(value)``, or ``complex(value)`` if not ``real``: the same values are accepted, and a refusal
    is a ValueError naming ``what``.

    With a ``bound``, "finite", "nonnegative" or "positive", the value is a Python argument that must be a
    real number, finite and, for the last two, >= 0 or > 0; text, which ``float`` would parse, is refused
    (a document's text is read first without a bound).  A Python scalar is tested by :mod:`math`.  A
    numpy complex scalar read as real is read as its real part if its imaginary part is zero, and
    refused otherwise (a Python complex is not a number to ``float``).
    """
    requirement = bound and _BOUNDS[bound]
    if real and isinstance(value, np.complexfloating):  # float() would warn and drop its imaginary part
        value = read_real(value, what)
    try:
        if requirement and isinstance(value, (str, bytes, bytearray)):
            raise TypeError("text is not a number")
        x = float(value) if real else complex(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a number, got {value!r}") from exc
    below = x < 0 if bound == "nonnegative" else x <= 0 if bound == "positive" else False
    if requirement and (below or not math.isfinite(x)):
        raise ValueError(f"{what} must be {requirement}, got {x!r}")
    return x


def read_integer(value, what: str, least: int | None = None) -> int:
    """``int(value)`` for a ``numbers.Integral`` that is not a bool (so ``np.int64`` passes) and is at least
    ``least``, if that is given; anything else is refused by a ValueError naming ``what``."""
    # a plain int skips the numbers.Integral test, an ABC lookup that costs some ten times more
    integral = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not integral or (least is not None and value < least):
        raise ValueError(f"{what} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return int(value)


def read_choice(value, what: str, choices: tuple[str, ...]) -> str:
    """``value`` if it is one of the strings ``choices``; anything else is refused by a ValueError naming
    ``what``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{what} must be one of {list(choices)}, got {value!r}")
    return value


def require_finite(value, what: str) -> None:
    """Refuse a number or array with a NaN or infinity by a ValueError naming ``what``."""
    # cmath on a plain number is some thirty times cheaper than a numpy round trip
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError(f"{what} is not finite: it has a NaN or infinite entry")
    elif not cmath.isfinite(value):
        raise ValueError(f"{what} is not finite")


def read_real(value, what: str, form: str = "numeric", real: bool = True) -> np.ndarray:
    """``value`` as a float array, or, if not ``real``, as a float or complex one (complex if it is);
    a refusal is a ValueError naming ``what`` (non-numeric input is refused as not ``form``).  A float64
    array is not copied.  A complex value read as real is read as its real part if its imaginary part
    is zero, and refused otherwise: a float conversion would drop that part with only a ComplexWarning."""
    try:
        given = np.asarray(value)
        if given.dtype.kind == "c" and not real:
            return np.asarray(given, dtype=complex)
        out = np.asarray(given.real if given.dtype.kind == "c" else value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be {form}: {exc}") from exc
    if given.dtype.kind == "c" and given.imag.any():
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")
    return out


def read_vector(
    value, what: str, length: int | None = None, *, real: bool = True, finite: bool = True, form: str = "numeric"
) -> np.ndarray:
    """``value`` as a vector of ``length`` entries, or of 2n, n >= 1, if that is not given: a float array,
    or, if not ``real``, a complex one.  It is read by :func:`read_real` and, if ``finite``, refused
    with a NaN or infinite entry; a refusal is a ValueError naming ``what``."""
    v = read_real(value, what, form, real).astype(float if real else complex, copy=False)
    fits = v.shape == (length,) if length else v.ndim == 1 and v.size and not v.size % 2
    if not fits:
        raise ValueError(f"{what} must have length {length or '2n with n >= 1'}, got shape {v.shape}")
    if finite:
        require_finite(v, what)
    return v


def read_matrix(
    value, what: str, size: int | None = None, *, phase_space: bool = True, finite: bool = True,
    form: str = "a numeric matrix",
) -> np.ndarray:
    """``value`` as a nonempty square matrix, read by :func:`read_real`: a real float array if
    ``phase_space``, otherwise a float or complex one.  It is ``size`` x ``size`` if that is given, and
    otherwise, if ``phase_space``, 2n x 2n.  If ``finite``, a NaN or infinite entry is refused.  A refusal
    is a ValueError naming ``what``; a float64 array is not copied."""
    m = read_real(value, what, form, real=phase_space)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if size is not None and len(m) != size:
        raise ValueError(f"{what} must be {size} x {size}, got shape {m.shape}")
    if phase_space and size is None and (m.shape[0] % 2 or not m.size):
        raise ValueError(f"{what} must be 2n x 2n with n >= 1, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{what} is empty, got shape {m.shape}")
    if finite:
        require_finite(m, what)
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
            what = f"tolerance {f.name}"
            # text, as float() parses it, is read first: a tolerance may come from a document
            value = read_number(getattr(self, f.name), what)
            object.__setattr__(self, f.name, read_number(value, what, "nonnegative"))


DEFAULT_TOL = Tolerances()
_SMALLEST_NORMAL = float(np.finfo(float).tiny)  # below it a deviation is underflow noise, not error


def within(dev: float, rtol: float, *sizes: float) -> bool:
    """Whether dev <= rtol times the largest size of the quantities compared, floored only at the smallest
    normal float: the rule of every relative comparison.  A NaN dev fails."""
    return bool(dev <= rtol * max(*sizes, _SMALLEST_NORMAL))


def zero_band(eig: np.ndarray, tol: Tolerances, *sizes: float) -> float:
    """eig_zero_band times the size of eig and of ``sizes``, those of terms that can cancel in eig's matrix."""
    return tol.eig_zero_band * max(float(np.abs(eig).max()) if eig.size else 0.0, *sizes, _SMALLEST_NORMAL)


@functools.lru_cache(maxsize=64, typed=True)  # typed: 2.0 must not hit the entry of 2 and pass unread
def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form J = [[0, I], [-I, 0]] (block layout).

    The result is built once per n and shared by every caller, so it is
    read-only; copy it before modifying it.  A mode count that is not a positive integer is refused
    by a ValueError.
    """
    read_integer(n, "mode count", 1)
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
    """Validate that ``m`` is Hermitian within tolerance and return its Hermitian part, a new array.

    The deviation ||m - m^dag||_inf is judged relative to ||m||_inf (:func:`within`).  Input that is not
    a square, nonempty, finite matrix is refused by :func:`read_matrix`, by a ValueError naming ``what``.

    Fast gate: a float or complex m that equals m^dag entry for entry is its own Hermitian part, so
    ``m.copy()`` is returned after one comparison and one finiteness pass, bit for bit the result of the
    full path; a zero deviation passes at any scale.
    """
    m = np.asarray(m)
    kind, shape = m.dtype.kind, m.shape
    if (kind in "fc" and len(shape) == 2 and shape[0] == shape[1] and m.size
            and (m == (m.conj() if kind == "c" else m).T).all() and np.isfinite(m).all()):
        return m.copy()
    m = read_matrix(m, what, phase_space=False)
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
