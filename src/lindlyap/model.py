"""Model layer: quadratic Hamiltonians, linear Lindblad couplings, and the
first and second moment dynamics they generate.

A model consists of a Hamiltonian (1/2) x^T H x + xi^T x + h0 on n bosonic
modes together with a set of jump operators that are linear in phase space,
L_m = lam_m . (J x) + mu_m (complex coupling vector lam_m, complex scalar
mu_m).  Such a model closes on the first two moments: the mean obeys
xbar' = Gamma xbar + drive and the covariance matrix obeys
V' = Gamma V + V Gamma^T + D.

A drift matrix is factorized once, into a Schur form Gamma = U T U^dag
(:func:`schur_form`, by LAPACK ``gees`` from scipy's compiled wrapper module,
:mod:`lindlyap._lapack`).  Its spectrum is the eigenvalues ``gees`` returns
with T, so the same record certifies stability and feeds the Bartels-Stewart
solve of :mod:`lindlyap.lyapunov`; a model caches the record of its drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from ._lapack import flapack
from .core import (
    DEFAULT_TOL,
    Tolerances,
    check_hermitian,
    read_matrix,
    read_number,
    read_vector,
    require_finite,
    symplectic_form,
    within,
    zero_band,
)

__all__ = [
    "QuadraticHamiltonian",
    "LindbladVector",
    "ModelSpec",
    "GaussianDynamics",
    "SchurForm",
    "StabilityReport",
    "LindbladRealization",
    "build_dynamics",
    "schur_form",
    "stability_check",
    "require_stable",
    "UnstableDriftError",
    "realize_lindblad",
]


_HESSIAN_TOL = Tolerances(residual_tol=1e-12)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Hamiltonian (1/2) x^T hessian x + linear^T x + offset in block (q, p) layout.

    hessian must be real symmetric, 2n x 2n, and linear a real 2n vector (zero by default).  All
    entries must be finite.
    """

    hessian: np.ndarray
    linear: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        h = read_matrix(self.hessian, "hessian")
        lin = np.zeros(len(h)) if self.linear is None else read_vector(self.linear, "linear term xi", len(h))
        offset = read_number(self.offset, "offset h0")
        require_finite(offset, "offset h0")
        object.__setattr__(self, "hessian", check_hermitian(h, _HESSIAN_TOL, what="hessian"))
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self) -> int:
        return self.hessian.shape[0] // 2


@dataclass(frozen=True)
class LindbladVector:
    """One linear jump operator: complex phase-space coupling plus scalar offset, both finite."""

    coupling: np.ndarray
    offset: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "coupling", read_vector(self.coupling, "coupling lambda", real=False))
        offset = read_number(self.offset, "offset mu", real=False)
        require_finite(offset, "offset mu")
        object.__setattr__(self, "offset", offset)

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

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    def build(self) -> "GaussianDynamics":
        """The model's moment dynamics, by :func:`build_dynamics`, which takes no tolerance."""
        return build_dynamics(self.hamiltonian, self.lindblad)


@dataclass(frozen=True)
class GaussianDynamics:
    """Moment flow of a linear open model.

    drift_matrix generates the homogeneous part of both moment equations,
    diffusion is the covariance source term, noise_gram is the (Hermitian PSD)
    Gram matrix of the coupling vectors, mean_shift is the jump-operator
    contribution to the mean flow, and drive = hamiltonian linear part minus
    mean_shift is the constant term of the mean equation.

    The arrays are read-only copies, so the cached Schur form of the drift
    cannot go stale.  Each is finite and read by its field's name: the
    matrices as square float or complex ones of the hessian's size
    (:func:`~lindlyap.core.read_matrix`) and the vectors as real ones of
    that length (:func:`~lindlyap.core.read_vector`).
    """

    hessian: np.ndarray
    drift_matrix: np.ndarray
    diffusion: np.ndarray
    noise_gram: np.ndarray
    mean_shift: np.ndarray
    drive: np.ndarray

    def __post_init__(self):
        dim = None  # the hessian, read first, sets it
        for f in fields(self):
            value, vector = getattr(self, f.name), f.name in ("mean_shift", "drive")
            arr = read_vector(value, f.name, dim) if vector else read_matrix(value, f.name, dim, phase_space=False)
            arr = np.array(arr)
            dim = len(arr)
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)

    @property
    def n(self) -> int:
        return self.drift_matrix.shape[0] // 2

    @cached_property
    def drift_schur(self) -> SchurForm:
        """Schur form of drift_matrix, factorized on first use and shared by every later reader.  The
        drift was read and made read-only when the model was built, so the form keeps it as its matrix."""
        return _factorize(self.drift_matrix)


def _moment_pair(
    hessian: np.ndarray, couplings: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(noise_gram, drift_matrix, diffusion) of a Hessian and the couplings stacked as the rows of C.

    noise_gram = C^T conj(C), checked Hermitian; drift_matrix = J H - Im(noise_gram) J and
    diffusion = 2 Re(noise_gram).
    """
    gram = check_hermitian(couplings.T @ couplings.conj(), tol, what="noise Gram matrix")
    j = symplectic_form(hessian.shape[0] // 2)
    return gram, j @ hessian - gram.imag @ j, 2.0 * gram.real


def build_dynamics(
    hamiltonian: QuadraticHamiltonian,
    lindblad: tuple[LindbladVector, ...] | list[LindbladVector] = (),
) -> GaussianDynamics:
    """Assemble the moment dynamics of a model.

    drift_matrix = J H - Im(noise_gram) J and diffusion = 2 Re(noise_gram),
    with J the symplectic form.  With the couplings stacked as the rows of C
    and the offsets in mu, noise_gram = C^T conj(C) and the mean shift is
    Im(conj(mu) C), one product each.  Models with no jump operators are
    allowed (closed dynamics, zero diffusion).  A build takes no tolerance:
    its one check, that the noise Gram matrix is Hermitian, runs at
    DEFAULT_TOL, as a tolerance judges results and never changes the model.
    """
    n = hamiltonian.n
    lindblad = tuple(lindblad)
    for v in lindblad:
        if v.n != n:
            raise ValueError(f"coupling vector has {v.n} modes, Hamiltonian has {n}")
    couplings = np.array([v.coupling for v in lindblad], dtype=complex).reshape(len(lindblad), 2 * n)
    offsets = np.array([v.offset for v in lindblad], dtype=complex)
    shift = (offsets.conj() @ couplings).imag
    gram, drift_matrix, diffusion = _moment_pair(hamiltonian.hessian, couplings, DEFAULT_TOL)
    return GaussianDynamics(
        hessian=hamiltonian.hessian,
        drift_matrix=drift_matrix,
        diffusion=diffusion,
        noise_gram=gram,
        mean_shift=shift,
        drive=hamiltonian.linear - shift,
    )


@dataclass(frozen=True)
class SchurForm:
    """Schur factorization matrix = u t u^dag, with the eigenvalues ``gees`` returned with t.

    For a real matrix t is quasi-upper-triangular and u orthogonal; for a
    complex one t is upper triangular and u unitary.  spectrum is sorted by
    (real part, imaginary part) and abscissa is its largest real part; size is
    max |entry| of matrix, measured once.  The arrays are read-only.
    """

    matrix: np.ndarray
    t: np.ndarray
    u: np.ndarray
    spectrum: np.ndarray
    abscissa: float
    size: float

    def stability(self, tol: Tolerances = DEFAULT_TOL) -> StabilityReport:
        """Stable: abscissa < -margin, where margin = stability_margin * size; marginal: |abscissa| <= margin."""
        rtol, a = tol.stability_margin, self.abscissa
        stable, marginal = not within(-a, rtol, self.size), within(abs(a), rtol, self.size)
        return StabilityReport(stable, a, self.spectrum, rtol * self.size, marginal)


def _gees_of(dtype: np.dtype):
    """LAPACK ``gees`` for a double precision dtype, the routine ``get_lapack_funcs`` picks."""
    return flapack.zgees if dtype.kind == "c" else flapack.dgees


@cache
def _schur_lwork(dtype: np.dtype, size: int) -> int:
    """The optimal LAPACK ``gees`` workspace for a size x size matrix of dtype, the one that
    ``scipy.linalg.schur`` asks for before each factorization.  The query reads the size alone, not
    the entries, so it is made once per (dtype, size) in a process."""
    return int(_gees_of(dtype)(lambda *_: None, np.zeros((size, size), dtype), lwork=-1)[-2][0].real)


def _gees(a: np.ndarray, lwork: int) -> tuple:
    """LAPACK ``gees`` of a with the arguments ``scipy.linalg.schur`` passes (no sorting, a kept):
    the tuple (t, sdim, eigenvalues, u, work, info), whose eigenvalues are ``w``, or ``wr, wi`` for a
    real a.  Every :class:`SchurForm` is factorized through this call alone."""
    return _gees_of(a.dtype)(lambda *_: None, a, lwork=lwork, overwrite_a=False, sort_t=0)


def schur_form(matrix: np.ndarray) -> SchurForm:
    """Factorize a finite square matrix once, by LAPACK ``gees`` in double precision.

    The form is real for a real matrix and complex otherwise, the bits that
    ``scipy.linalg.schur`` gives, and a failure raises the same errors; input that is not a
    nonempty, finite, square numeric matrix is refused by :func:`~lindlyap.core.read_matrix`,
    naming the "drift matrix".  The form keeps a read-only copy of the matrix.
    """
    return _factorize(read_matrix(matrix, "drift matrix", phase_space=False).copy())


def _factorize(a: np.ndarray) -> SchurForm:
    """The Schur form of a finite, square float or complex matrix, kept as its matrix and made read-only.

    The spectrum is the eigenvalues ``gees`` returns: ``w`` of a complex form, and ``wr + 1j wi``
    of a real one, where each standardized 2 x 2 block holds a conjugate pair and a real eigenvalue
    is ``wr`` as returned.  As with ``numpy.linalg.eigvals``, the spectrum of a real matrix is real
    when it has no such pair.
    """
    t, _, *w, u, _, info = _gees(a, _schur_lwork(a.dtype, len(a)))  # w is [w], or [wr, wi] for a real a
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    eig = w[0]
    if len(w) == 2 and (wi := w[1]).any():
        eig = np.where(wi, eig + 1j * wi, eig)  # a real eigenvalue stays wr, a zero's sign included
    spectrum = eig[np.lexsort((eig.imag, eig.real))]
    for arr in (a, t, u, spectrum):
        arr.flags.writeable = False
    return SchurForm(a, t, u, spectrum, float(spectrum[-1].real), float(np.abs(a).max()))


@dataclass(frozen=True)
class StabilityReport:
    """Spectral stability of a drift matrix (:meth:`SchurForm.stability`): stable, marginal or unstable."""

    is_stable: bool
    spectral_abscissa: float
    spectrum: np.ndarray  # read-only, sorted by (real part, imaginary part)
    margin: float
    is_marginal: bool


def stability_check(
    target: GaussianDynamics | SchurForm | np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> StabilityReport:
    """Decide asymptotic stability of a drift matrix (or of a model's drift).

    Stable means every eigenvalue real part lies below -stability_margin * max |entry|
    of the drift.  The spectrum is read off the drift's Schur form: a model's form is computed
    once and cached on it, a SchurForm is read as given, and a bare matrix,
    which must be finite, is factorized on every call.
    """
    form = target.drift_schur if isinstance(target, GaussianDynamics) else target
    return (form if isinstance(form, SchurForm) else schur_form(form)).stability(tol)


class UnstableDriftError(ValueError):
    """Refusal of ``what``, which needs an asymptotically stable drift matrix.

    report is the failed StabilityReport, abscissa its spectral abscissa and
    margin its margin, the threshold the abscissa failed to clear (abscissa >= -margin).
    """

    def __init__(self, what: str, report: StabilityReport):
        self.report, self.abscissa, self.margin = report, report.spectral_abscissa, report.margin
        super().__init__(
            f"{what} needs an asymptotically stable drift matrix (spectral abscissa {self.abscissa:.6e})"
        )


def require_stable(
    target: GaussianDynamics | SchurForm | np.ndarray, what: str, tol: Tolerances = DEFAULT_TOL
) -> StabilityReport:
    """Stability report of a drift matrix; raises UnstableDriftError naming ``what`` if it is not stable."""
    if not (report := stability_check(target, tol)).is_stable:
        raise UnstableDriftError(what, report)
    return report


@dataclass(frozen=True)
class LindbladRealization:
    """A model recovered from a (drift, diffusion) pair.

    couplings holds one jump coupling per row and is read-only, so the
    LindbladVector objects built from it on the first read of ``vectors`` (or
    ``spec``), and kept, cannot go stale.
    """

    hamiltonian: QuadraticHamiltonian
    noise_gram: np.ndarray
    couplings: np.ndarray

    @cached_property
    def vectors(self) -> tuple[LindbladVector, ...]:
        return tuple(LindbladVector(c) for c in self.couplings)

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
    eigendecomposition (one per eigenvalue above the zero band), and the
    pair they rebuild by the arithmetic of :func:`build_dynamics` must match
    the given one within residual_tol plus what the dropped eigenvalues
    carried.
    """
    gamma = read_matrix(drift_matrix, "drift matrix")
    # check_hermitian refuses a NaN or infinite entry
    d = check_hermitian(read_matrix(diffusion, "diffusion", len(gamma), finite=False, form="numeric"), tol,
                        what="diffusion")
    n = gamma.shape[0] // 2
    j = symplectic_form(n)

    gj = gamma @ j.T
    hessian = -j @ (0.5 * (gj + gj.T)) @ j
    gram_imag = -0.5 * (gj - gj.T)
    gram = 0.5 * d + 1j * gram_imag

    eigval, eigvec = np.linalg.eigh(gram)
    band = zero_band(eigval, tol)
    if eigval.min() < -band:
        raise ValueError(
            "not realizable as a Lindblad dissipator: the implied noise Gram "
            f"matrix has eigenvalue {eigval.min():.6e} below the zero band"
        )
    keep = eigval > band
    couplings = np.ascontiguousarray((eigvec[:, keep] * np.sqrt(eigval[keep])).T)
    couplings.flags.writeable = False

    ham = QuadraticHamiltonian(hessian)
    _, drift, diff = _moment_pair(ham.hessian, couplings, tol)
    # the dropped eigenvalues lie in the band, so they move a Gram entry by at most one band:
    # the drift (J H - Im(Gram) J) by one band and the diffusion (2 Re(Gram)) by two
    sizes = np.abs(gamma).max(), np.abs(d).max()
    errs = np.abs(drift - gamma).max(), np.abs(diff - d).max()
    # `within` also refuses a deviation that overflowed to NaN
    if not all(within(err - slack, tol.residual_tol, *sizes) for err, slack in zip(errs, (band, 2 * band))):
        raise ValueError(f"realization failed to reproduce the pair, deviation {max(errs):.3e}")
    return LindbladRealization(hamiltonian=ham, noise_gram=gram, couplings=couplings)
