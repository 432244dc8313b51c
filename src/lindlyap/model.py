"""Model layer: quadratic Hamiltonians, linear Lindblad couplings, and the
first and second moment dynamics they generate.

A model consists of a Hamiltonian (1/2) x^T H x + xi^T x + h0 on n bosonic
modes together with a set of jump operators that are linear in phase space,
L_m = lam_m . (J x) + mu_m (complex coupling vector lam_m, complex scalar
mu_m).  Such a model closes on the first two moments: the mean obeys
xbar' = Gamma xbar + drive and the covariance matrix obeys
V' = Gamma V + V Gamma^T + D.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, Tolerances, check_hermitian, symplectic_form

__all__ = [
    "QuadraticHamiltonian",
    "LindbladVector",
    "ModelSpec",
    "GaussianDynamics",
    "StabilityReport",
    "LindbladRealization",
    "build_dynamics",
    "stability_check",
    "require_stable",
    "unstable_drift_error",
    "mean_fixed_point",
    "realize_lindblad",
]


def _require_finite(*named) -> None:
    """Raise a ValueError naming the first (name, array or number) pair with a NaN or infinity."""
    for what, value in named:
        # cmath on a plain number is some thirty times cheaper than a numpy round trip
        if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else cmath.isfinite(value)):
            raise ValueError(f"{what} is not finite: it has a NaN or infinite entry")


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Hamiltonian (1/2) x^T hessian x + linear^T x + offset in block (q, p) layout.

    hessian must be real symmetric, 2n x 2n.  linear defaults to zero.  All
    entries must be finite.
    """

    hessian: np.ndarray
    linear: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        if h.shape[0] != h.shape[1] or h.shape[0] % 2:
            raise ValueError(f"hessian must be 2n x 2n, got shape {h.shape}")
        lin = self.linear
        lin = np.zeros(h.shape[0]) if lin is None else np.asarray(lin, dtype=float)
        if lin.shape != (h.shape[0],):
            raise ValueError(f"linear term must have length {h.shape[0]}, got {lin.shape}")
        _require_finite(("hessian", h), ("linear term xi", lin), ("offset h0", self.offset))
        h = check_hermitian(h, Tolerances(residual_tol=1e-12), what="hessian")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "linear", lin)

    @property
    def n(self) -> int:
        return self.hessian.shape[0] // 2


@dataclass(frozen=True)
class LindbladVector:
    """One linear jump operator: complex phase-space coupling plus scalar offset, both finite."""

    coupling: np.ndarray
    offset: complex = 0j

    def __post_init__(self):
        c = np.asarray(self.coupling, dtype=complex)
        if c.ndim != 1 or c.shape[0] % 2:
            raise ValueError(f"coupling must be a complex 2n vector, got shape {c.shape}")
        _require_finite(("coupling lambda", c), ("offset mu", self.offset))
        object.__setattr__(self, "coupling", c)

    @property
    def n(self) -> int:
        return self.coupling.shape[0] // 2


@dataclass(frozen=True)
class ModelSpec:
    """A Hamiltonian together with its jump couplings."""

    hamiltonian: QuadraticHamiltonian
    lindblad: tuple[LindbladVector, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "lindblad", tuple(self.lindblad))
        for v in self.lindblad:
            if v.n != self.hamiltonian.n:
                raise ValueError(
                    f"coupling vector has {v.n} modes, Hamiltonian has {self.hamiltonian.n}"
                )

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    def build(self, tol: Tolerances = DEFAULT_TOL) -> "GaussianDynamics":
        return build_dynamics(self.hamiltonian, self.lindblad, tol)


@dataclass(frozen=True)
class GaussianDynamics:
    """Moment flow of a linear open model.

    drift_matrix generates the homogeneous part of both moment equations,
    diffusion is the covariance source term, noise_gram is the (Hermitian PSD)
    Gram matrix of the coupling vectors, mean_shift is the jump-operator
    contribution to the mean flow, and drive = hamiltonian linear part minus
    mean_shift is the constant term of the mean equation.

    The arrays are read-only copies, so the cached drift spectrum cannot go
    stale.  Every entry must be finite.
    """

    hessian: np.ndarray
    drift_matrix: np.ndarray
    diffusion: np.ndarray
    noise_gram: np.ndarray
    mean_shift: np.ndarray
    drive: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.array(getattr(self, f.name))
            _require_finite((f.name, arr))
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)

    @property
    def n(self) -> int:
        return self.drift_matrix.shape[0] // 2

    @cached_property
    def drift_spectrum(self) -> np.ndarray:
        """Read-only eigenvalues of drift_matrix, sorted by (real part, imaginary part)."""
        return _sorted_spectrum(self.drift_matrix)


def build_dynamics(
    hamiltonian: QuadraticHamiltonian,
    lindblad: tuple[LindbladVector, ...] | list[LindbladVector] = (),
    tol: Tolerances = DEFAULT_TOL,
) -> GaussianDynamics:
    """Assemble the moment dynamics of a model.

    drift_matrix = J H - Im(noise_gram) J and diffusion = 2 Re(noise_gram),
    with J the symplectic form.  Models with no jump operators are allowed
    (closed dynamics, zero diffusion).
    """
    n = hamiltonian.n
    dim = 2 * n
    gram = np.zeros((dim, dim), dtype=complex)
    shift = np.zeros(dim)
    for v in lindblad:
        if v.n != n:
            raise ValueError(f"coupling vector has {v.n} modes, Hamiltonian has {n}")
        gram += np.outer(v.coupling, v.coupling.conj())
        shift += (np.conj(v.offset) * v.coupling).imag
    gram = check_hermitian(gram, tol, what="noise Gram matrix")
    j = symplectic_form(n)
    drift_matrix = j @ hamiltonian.hessian - gram.imag @ j
    diffusion = 2.0 * gram.real
    return GaussianDynamics(
        hessian=hamiltonian.hessian,
        drift_matrix=drift_matrix,
        diffusion=diffusion,
        noise_gram=gram,
        mean_shift=shift,
        drive=hamiltonian.linear - shift,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Spectral stability of a drift matrix."""

    is_stable: bool
    spectral_abscissa: float
    spectrum: np.ndarray  # read-only, sorted by (real part, imaginary part)


def _sorted_spectrum(gamma: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvals(gamma)
    spectrum = eig[np.lexsort((eig.imag, eig.real))]
    spectrum.flags.writeable = False
    return spectrum


def stability_check(
    target: GaussianDynamics | np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> StabilityReport:
    """Decide asymptotic stability of a drift matrix (or of a model's drift).

    Stable means every eigenvalue real part lies below -stability_margin.  A
    model's spectrum is computed once and cached on it; a bare matrix is
    decomposed on every call, and must be finite.
    """
    if isinstance(target, GaussianDynamics):
        spectrum = target.drift_spectrum
    else:
        gamma = np.asarray(target)
        _require_finite(("drift matrix", gamma))
        spectrum = _sorted_spectrum(gamma)
    abscissa = float(spectrum[-1].real)
    return StabilityReport(
        is_stable=bool(abscissa < -tol.stability_margin),
        spectral_abscissa=abscissa,
        spectrum=spectrum,
    )


def require_stable(target: GaussianDynamics | np.ndarray, what: str, tol: Tolerances = DEFAULT_TOL) -> StabilityReport:
    """Stability report of a drift matrix; raises ValueError naming ``what`` if it is not stable."""
    report = stability_check(target, tol)
    if not report.is_stable:
        raise unstable_drift_error(what, report.spectral_abscissa)
    return report


def unstable_drift_error(what: str, abscissa: float) -> ValueError:
    """The refusal raised when ``what`` meets a drift matrix with spectral abscissa ``abscissa``."""
    return ValueError(
        f"{what} needs an asymptotically stable drift matrix (spectral abscissa {abscissa:.6e})"
    )


def mean_fixed_point(dyn: GaussianDynamics, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Stationary mean vector, the solution of drift_matrix x + drive = 0.

    Requires an asymptotically stable drift matrix.
    """
    require_stable(dyn, "mean fixed point", tol)
    return np.linalg.solve(dyn.drift_matrix, -dyn.drive)


@dataclass(frozen=True)
class LindbladRealization:
    """A model recovered from a (drift, diffusion) pair."""

    hamiltonian: QuadraticHamiltonian
    noise_gram: np.ndarray
    vectors: tuple[LindbladVector, ...]

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.hamiltonian, self.vectors)


def realize_lindblad(
    drift_matrix: np.ndarray,
    diffusion: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> LindbladRealization:
    """Invert a (drift, diffusion) pair into a Hamiltonian plus jump couplings.

    Splitting drift_matrix J^T into symmetric and antisymmetric parts yields
    the Hamiltonian Hessian and Im(noise_gram); the full Gram matrix is then
    diffusion / 2 + i Im(noise_gram) and must be PSD for the pair to come from
    a dissipator of the assumed form.  Coupling vectors are read off from its
    eigendecomposition (one per eigenvalue above the zero band).
    """
    gamma = np.asarray(drift_matrix, dtype=float)
    d = np.asarray(diffusion, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2:
        raise ValueError(f"drift matrix must be 2n x 2n, got shape {gamma.shape}")
    if d.shape != gamma.shape:
        raise ValueError(f"diffusion shape {d.shape} does not match drift shape {gamma.shape}")
    _require_finite(("drift matrix", gamma))
    d = check_hermitian(d, tol, what="diffusion")
    n = gamma.shape[0] // 2
    j = symplectic_form(n)

    gj = gamma @ j.T
    hessian = -j @ (0.5 * (gj + gj.T)) @ j
    gram_imag = -0.5 * (gj - gj.T)
    gram = 0.5 * d + 1j * gram_imag

    eigval, eigvec = np.linalg.eigh(gram)
    band = tol.eig_zero_band * max(1.0, np.abs(eigval).max() if eigval.size else 0.0)
    if eigval.min() < -band:
        raise ValueError(
            "not realizable as a Lindblad dissipator: the implied noise Gram "
            f"matrix has eigenvalue {eigval.min():.6e} below the zero band"
        )
    vectors = tuple(
        LindbladVector(np.sqrt(val) * eigvec[:, k])
        for k, val in enumerate(eigval)
        if val > band
    )

    ham = QuadraticHamiltonian(hessian)
    rebuilt = build_dynamics(ham, vectors, tol)
    scale = max(1.0, np.abs(gamma).max(), np.abs(d).max())
    err = max(
        np.abs(rebuilt.drift_matrix - gamma).max(),
        np.abs(rebuilt.diffusion - d).max(),
    )
    if err > tol.residual_tol * scale:
        raise ValueError(f"realization failed to reproduce the pair, deviation {err:.3e}")
    return LindbladRealization(hamiltonian=ham, noise_gram=gram, vectors=vectors)
